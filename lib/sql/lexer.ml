type token =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | Kw of string
  | Sym of string
  | Eof

exception Error of string * int

(* Membership test against the keyword set. A string [match] compiles to a
   decision tree over the string's machine words, so a word costs a few
   comparisons, not a walk over the set. *)
let is_keyword = function
  | "SELECT" | "FROM" | "WHERE" | "AND" | "OR" | "NOT" | "IN" | "BETWEEN"
  | "GROUP" | "ORDER" | "BY" | "ASC" | "DESC" | "AS" | "CREATE" | "TABLE"
  | "INDEX" | "CLUSTERED" | "ON" | "INSERT" | "INTO" | "VALUES" | "DELETE"
  | "UPDATE" | "SET" | "STATISTICS" | "SEARCH" | "HISTOGRAMS" | "OFF"
  | "PLAN_CACHE_SIZE" | "COMMIT_DELAY" | "GROUP_COMMIT" | "BEGIN"
  | "TRANSACTION" | "COMMIT" | "ROLLBACK" | "EXPLAIN" | "DROP" | "INT" | "FLOAT"
  | "STRING" | "NULL" | "VACUUM" | "AVG" | "MIN" | "MAX" | "SUM" | "COUNT" ->
    true
  | _ -> false

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* Tokens are consed up as they are found and copied once, into an array of
   exactly their number, filled from the end. (An array grown by doubling
   would leave a long statement's outgrown copies as major-heap garbage.) *)
let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let len = ref 0 in
  let emit tok off =
    toks := (tok, off) :: !toks;
    incr len
  in
  let rec go i =
    if i >= n then begin
      (* a second EOF sentinel lets two-token lookahead run safely at the end *)
      emit Eof i;
      emit Eof n
    end
    else
      match src.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | '-' when i + 1 < n && src.[i + 1] = '-' ->
        (* SQL line comment *)
        let rec skip j = if j < n && src.[j] <> '\n' then skip (j + 1) else j in
        go (skip (i + 2))
      | '\'' ->
        (* string literal; '' escapes a quote *)
        let buf = Buffer.create 16 in
        let rec scan j =
          if j >= n then raise (Error ("unterminated string literal", i))
          else if src.[j] = '\'' then
            if j + 1 < n && src.[j + 1] = '\'' then begin
              Buffer.add_char buf '\'';
              scan (j + 2)
            end
            else j + 1
          else begin
            Buffer.add_char buf src.[j];
            scan (j + 1)
          end
        in
        let next = scan (i + 1) in
        emit (Str_lit (Buffer.contents buf)) i;
        go next
      | c when is_digit c ->
        (* digits, then an optional fraction and an optional exponent; either
           makes a FLOAT *)
        let rec scan j = if j < n && is_digit src.[j] then scan (j + 1) else j in
        let int_end = scan i in
        let frac_end =
          if int_end + 1 < n && src.[int_end] = '.' && is_digit src.[int_end + 1]
          then scan (int_end + 1)
          else int_end
        in
        let stop =
          if frac_end < n && (src.[frac_end] = 'e' || src.[frac_end] = 'E') then
            let d =
              if frac_end + 1 < n && (src.[frac_end + 1] = '+' || src.[frac_end + 1] = '-')
              then frac_end + 2
              else frac_end + 1
            in
            if d < n && is_digit src.[d] then scan d else frac_end
          else frac_end
        in
        let text = String.sub src i (stop - i) in
        (if stop = int_end then
           match int_of_string_opt text with
           | Some k -> emit (Int_lit k) i
           | None -> raise (Error ("integer literal out of range", i))
         else
           let f = float_of_string text in
           if Float.is_finite f then emit (Float_lit f) i
           else raise (Error ("float literal out of range", i)));
        go stop
      | c when is_ident_start c ->
        let rec scan j = if j < n && is_ident_char src.[j] then scan (j + 1) else j in
        let e = scan i in
        let word = String.sub src i (e - i) in
        let up = String.uppercase_ascii word in
        if is_keyword up then emit (Kw up) i else emit (Ident word) i;
        go e
      | '<' when i + 1 < n && (src.[i + 1] = '=' || src.[i + 1] = '>') ->
        emit (Sym (String.sub src i 2)) i;
        go (i + 2)
      | '>' when i + 1 < n && src.[i + 1] = '=' ->
        emit (Sym ">=") i;
        go (i + 2)
      | '!' when i + 1 < n && src.[i + 1] = '=' ->
        emit (Sym "<>") i;
        go (i + 2)
      | ('=' | '<' | '>' | '(' | ')' | ',' | '.' | '*' | '+' | '-' | '/' | ';' | '?') as c ->
        emit (Sym (String.make 1 c)) i;
        go (i + 1)
      | c -> raise (Error (Printf.sprintf "illegal character %C" c, i))
  in
  go 0;
  let arr = Array.make !len (Eof, n) in
  List.iteri (fun i tok -> arr.(!len - 1 - i) <- tok) !toks;
  arr

let pp_token ppf = function
  | Ident s -> Format.fprintf ppf "identifier %S" s
  | Int_lit i -> Format.fprintf ppf "integer %d" i
  | Float_lit f -> Format.fprintf ppf "float %g" f
  | Str_lit s -> Format.fprintf ppf "string %S" s
  | Kw k -> Format.fprintf ppf "keyword %s" k
  | Sym s -> Format.fprintf ppf "%S" s
  | Eof -> Format.pp_print_string ppf "end of input"
