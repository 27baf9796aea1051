(** Hand-written SQL lexer. *)

type token =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | Kw of string        (** uppercased keyword *)
  | Sym of string       (** punctuation / operator *)
  | Eof

exception Error of string * int  (** message, character offset *)

val tokenize : string -> (token * int) array
(** All tokens with their start offsets, ending with two [Eof]s at the end
    of input (the second lets a parser look two tokens ahead).
    A number with a fraction or an exponent ([2.5], [1e+20], [1.5E-7]) is a
    FLOAT, other numbers INTs.
    @raise Error on an unterminated string, an illegal character, or a
    number out of range (an INT above [max_int], a FLOAT that overflows). *)

val pp_token : Format.formatter -> token -> unit
