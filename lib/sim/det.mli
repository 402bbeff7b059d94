(** Deterministic views of [Hashtbl] contents.

    [Hashtbl.iter]/[fold] visit bindings in an unspecified order, which
    is banned in protocol and simulator code (lint rule D001, see
    docs/LINT.md): hash order can change decided sequence numbers,
    committed prefixes and metrics between runs. These helpers
    materialise the bindings and sort them by key so traversal order is
    a function of the table's contents only. *)

(** [sorted_bindings ~cmp tbl] is the bindings of [tbl] sorted by key
    with [cmp]. Cost: O(n log n) with an intermediate list — fine for
    the small per-node tables this is used on. If a key has several
    bindings (via [Hashtbl.add] shadowing), all of them are returned;
    callers that rely on one-binding-per-key must use
    [Hashtbl.replace] consistently. *)
val sorted_bindings : cmp:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list
