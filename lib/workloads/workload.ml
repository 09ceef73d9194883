module Memory = Aptget_mem.Memory

type instance = {
  mem : Memory.t;
  func : Ir.func;
  args : int list;
  verify : Memory.t -> int option -> (unit, string) result;
}

type t = {
  name : string;
  app : string;
  input : string;
  description : string;
  nested : bool;
  build : unit -> instance;
}

let stores (f : Ir.func) =
  Array.exists
    (fun (b : Ir.block) ->
      Array.exists
        (fun (i : Ir.instr) -> match i.Ir.kind with Ir.Store _ -> true | _ -> false)
        b.Ir.instrs)
    f.Ir.blocks

type memo = Unbuilt | Pristine of instance | Stores

(* The first build runs the recipe under the lock, so two domains
   building one record at once never both lay out the image. A
   store-free result becomes the pristine instance: it is never handed
   out itself, only aliases of its memory (copy-on-write, so a run
   that writes anyway copies first) and copies of its IR (injection
   rewrites IR in place). A kernel that stores would copy the whole
   image on its first store anyway, and keeping its pristine image
   resident costs more memory than a rebuild costs time (randAcc's
   table alone is 33.5 MB), so it runs its recipe on every build. *)
let make ~name ~app ~input ~description ~nested recipe =
  let lock = Mutex.create () in
  let memo = ref Unbuilt in
  let alias p = { p with mem = Memory.share p.mem; func = Ir.copy_func p.func } in
  let build () =
    let built =
      Mutex.protect lock (fun () ->
          match !memo with
          | Stores -> None
          | Pristine p -> Some (alias p)
          | Unbuilt ->
            let inst = recipe () in
            if stores inst.func then begin
              memo := Stores;
              Some inst
            end
            else begin
              memo := Pristine inst;
              Some (alias inst)
            end)
    in
    match built with Some inst -> inst | None -> recipe ()
  in
  { name; app; input; description; nested; build }

let alloc_guard mem = ignore (Memory.alloc mem ~name:"guard" ~words:8192)

let expect_ret expected _ ret =
  match ret with
  | Some v when v = expected -> Ok ()
  | Some v ->
    Error (Printf.sprintf "kernel returned %d, expected %d" v expected)
  | None -> Error "kernel returned no value"
