type t =
  | Pre_gst of { gst : int; max_extra : int }
  | Targeted of { gst : int; max_extra : int; victims : int list }

(* Uniform in [0, max_extra], capped so that nothing outlives GST by
   more than max_extra. *)
let draw rng ~now ~gst ~max_extra =
  min (Crypto.Rng.int rng (max_extra + 1)) (gst + max_extra - now)

let extra_delay t rng ~now ~src ~dst =
  match t with
  | Pre_gst { gst; max_extra } ->
      if now >= gst then 0 else draw rng ~now ~gst ~max_extra
  | Targeted { gst; max_extra; victims } ->
      let hit = List.mem src victims || List.mem dst victims in
      if now >= gst || not hit then 0 else draw rng ~now ~gst ~max_extra

let gst (Pre_gst { gst; _ } | Targeted { gst; _ }) = gst

let validate t ~n =
  let common ctx ~gst ~max_extra =
    if gst < 0 then invalid_arg ("Adversary.validate: " ^ ctx ^ " gst negative");
    if max_extra < 0 then
      invalid_arg ("Adversary.validate: " ^ ctx ^ " max_extra negative")
  in
  match t with
  | Pre_gst { gst; max_extra } -> common "pre-gst" ~gst ~max_extra
  | Targeted { gst; max_extra; victims } ->
      common "targeted" ~gst ~max_extra;
      (match victims with
      | [] -> invalid_arg "Adversary.validate: targeted with no victims"
      | _ -> ());
      List.iter
        (fun v ->
          if v < 0 || v >= n then
            invalid_arg
              (Printf.sprintf "Adversary.validate: victim %d out of [0,%d)" v
                 n))
        victims

let label = function
  | Pre_gst { gst; max_extra } ->
      Printf.sprintf "pre-gst(gst=%dus,max=%dus)" gst max_extra
  | Targeted { gst; max_extra; victims } ->
      Printf.sprintf "targeted(gst=%dus,max=%dus,victims={%s})" gst max_extra
        (String.concat "," (List.map string_of_int victims))
