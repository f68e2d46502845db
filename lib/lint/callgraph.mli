(** Whole-lib/ call graph over the untyped parsetree (DESIGN.md §12).

    Files are reduced to {!summary} values — local findings, waivers,
    and one {!binding} per named function with its body facts and
    referenced identifiers. {!build} links the summaries into a graph;
    {!resolve} maps a referenced identifier to a node using the repo's
    layout conventions (same file, sibling module in the same wrapped
    library, [Tango_x.Module.fn] through the {!library_map}, [open]ed
    prefixes). Unresolvable references (stdlib, functor-generated code)
    end the chain: the analysis is a conservative under-approximation
    across those boundaries. *)

type call = { c_target : string; c_line : int; c_col : int }

type binding = {
  b_name : string;  (** dotted path within the file, e.g. ["Ring.push"] *)
  b_line : int;
  b_col : int;
  b_hot : bool;  (** carries a [[@hot]] attribute *)
  b_facts : Ast_check.fact list;  (** allocation/blocking facts of the body *)
  b_calls : call list;  (** identifiers referenced by the body *)
}

type summary = {
  s_path : string;
  s_findings : Rules.finding list;  (** local-pass findings, pre-waiver *)
  s_waivers : Waivers.t list;
  s_waiver_findings : Rules.finding list;  (** malformed-waiver findings *)
  s_opens : string list;
  s_bindings : binding list;
}

val flatten_longident : Longident.t -> string
(** ["Tango_dataplane.Fabric.send"]-style dotted rendering. *)

val aliases : Parsetree.structure -> (string * string) list
(** [module X = A.B] and [let module X = A.B in ...] aliases of one
    file, as (name, dotted target) pairs. *)

val expand_alias : (string * string) list -> string -> string
(** Expand a leading alias segment: with [module F = Tango_x.Fabric],
    ["F.send"] becomes ["Tango_x.Fabric.send"] and ["F"] becomes
    ["Tango_x.Fabric"]. One level — the tree aliases library modules,
    not aliases of aliases. *)

val extract : Parsetree.structure -> string list * binding list
(** [(opens, bindings)] of one file. Module aliases
    ([module F = Tango_x.Fabric]) are expanded into call targets at
    extraction time. Top-level and module-nested bindings register under
    their dotted path; expression-nested named bindings (e.g. a [@hot]
    continuation inside a lane body) register under their bare name. *)

val library_map : roots:string list -> (string * string) list
(** Wrapped-library module name -> source directory, built by reading
    [(name ...)] from each [<root>/<dir>/dune]
    (e.g. [("Tango_dataplane", "lib/dataplane")]). *)

type t

val build : lib_map:(string * string) list -> summary list -> t

val key : path:string -> name:string -> string
(** Node key, ["<path>#<binding name>"]. *)

val find : t -> string -> (string * binding) option
(** Look a node up by {!key}. *)

val resolve : t -> from_path:string -> string -> string option
(** Resolve a referenced dotted identifier seen in [from_path] to a node
    key, or [None] if it crosses a boundary the linter cannot see
    through. *)

val display_name : path:string -> name:string -> string
(** Human form for chain rendering: ["Fabric.send_batch_direct"] from
    [path:"lib/dataplane/fabric.ml" name:"send_batch_direct"]. *)
