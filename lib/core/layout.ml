type materialization = Vanilla | Compact
type adjacency = Coo | Csr

type t = { materialization : materialization; adjacency : adjacency }

let default = { materialization = Vanilla; adjacency = Coo }
let compact = { default with materialization = Compact }

let pp fmt t =
  Format.fprintf fmt "%s+%s"
    (match t.materialization with Vanilla -> "vanilla" | Compact -> "compact")
    (match t.adjacency with Coo -> "coo" | Csr -> "csr")
