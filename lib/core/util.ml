let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  if not (is_pow2 n) then invalid_arg (Printf.sprintf "log2: %d is not a power of two" n);
  let rec go k n = if n = 1 then k else go (k + 1) (n lsr 1) in
  go 0 n

let ceil_div a b = (a + b - 1) / b
