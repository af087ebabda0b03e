/* Count trailing zeros with the compiler builtin (one instruction on
   current hardware), for the word-at-a-time index codec.  The native
   entry point takes and returns untagged integers and never allocates, so
   OCaml calls it without the C-call wrapper. */

#include <caml/mlvalues.h>

intnat eppi_prelude_ctz(intnat x)
{
  return x == 0 ? 63 : __builtin_ctzll((unsigned long long)x);
}

CAMLprim value eppi_prelude_ctz_byte(value x)
{
  return Val_long(eppi_prelude_ctz(Long_val(x)));
}
