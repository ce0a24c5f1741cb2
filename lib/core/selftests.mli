(** A deterministic corpus standing in for the kernel's verifier
    self-tests: the dataset of the paper's sanitation-overhead
    experiment (section 6.4, 708 load/store-bearing programs).

    Built from parametric hand-written families (stack traffic, copied
    stack pointers, ALU+store mixes, branch ladders, ctx reads, map
    lookups, direct values, atomics, packet access) plus
    structured-generator output under fixed seeds, all filtered to pass
    the fixed verifier and to be memory-access dense. *)

type suite = {
  session : Bvf_runtime.Loader.t;
  requests : Bvf_verifier.Verifier.request list;
      (** all pass the fixed verifier *)
}

val target_count : int
(** 708, as in the paper. *)

val build :
  ?count:int -> ?config:Bvf_kernel.Kconfig.t -> Bvf_ebpf.Version.t ->
  suite
(** The first [count] (default {!target_count}) programs of the
    corpus: the hand-written families, then structured-generator
    programs.  [config] (default {!Bvf_kernel.Kconfig.fixed}) must still be a
    fixed verifier; use it to enable observers such as the invariant
    lint or witness recording. *)
