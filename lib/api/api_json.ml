(** The wire format's JSON reader and writer, under the name the
    benchmark driver uses; the implementation is {!Util.Json}. *)

include Util.Json
