let render ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let width = Array.make cols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> width.(i) <- max width.(i) (String.length cell))
        row)
    all;
  let buf = Buffer.create 256 in
  let emit row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        if i < cols - 1 then
          Buffer.add_string buf (String.make (width.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  emit header;
  let total = Array.fold_left ( + ) 0 width + (2 * (cols - 1)) in
  Buffer.add_string buf (String.make total '-');
  Buffer.add_char buf '\n';
  List.iter emit rows;
  Buffer.contents buf

let print ~title ~header rows =
  Printf.printf "\n== %s ==\n%s%!" title (render ~header rows)
