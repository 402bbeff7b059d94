(** Named protocol configurations for the schedule-space explorer.

    Cases must serialize to replayable artifacts, so Byzantine and
    tweak knobs travel by name; this catalog maps each name back to a
    configured {!Protocol.NODE} adapter. *)

(** [make ~protocol ~knob] — the configured adapter, [None] when the
    pair is not in the catalog. Every protocol has a ["default"] knob;
    Lyra additionally has one [byz-*] knob per {!Lyra.Misbehavior}
    variant (node 0 turns Byzantine) and the deliberately unsound
    ["no-window-check"]; Pompē has ["byz-ts-skew"] (node 0 answers
    timestamp requests 400 ms in the future). *)
val make : protocol:string -> knob:string -> (module Protocol.NODE) option

(** Knobs under which every safety oracle must hold — the smoke-sweep
    population. *)
val safe : string -> string list

val is_broken : protocol:string -> knob:string -> bool

(** = {!Protocol.Registry.names}. *)
val protocols : string list
