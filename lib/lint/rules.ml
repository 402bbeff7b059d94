type id = D001 | D002 | D003 | D101 | D102 | P001 | S001 | S002 | S003 | S004 | S005

let all = [ D001; D002; D003; D101; D102; P001; S001; S002; S003; S004; S005 ]

let to_string = function
  | D001 -> "D001"
  | D002 -> "D002"
  | D003 -> "D003"
  | D101 -> "D101"
  | D102 -> "D102"
  | P001 -> "P001"
  | S001 -> "S001"
  | S002 -> "S002"
  | S003 -> "S003"
  | S004 -> "S004"
  | S005 -> "S005"

let of_string s = List.find_opt (fun r -> String.equal (to_string r) s) all
