/* CRC-32 through zlib's crc32_z: [crc] is the running checksum and the
   range is checked on the OCaml side. The native entry takes untagged
   ints and neither allocates nor calls into the OCaml runtime. */

#include <zlib.h>
#include <caml/mlvalues.h>

intnat xc_crc32_update(intnat crc, value s, intnat pos, intnat len)
{
  return crc32_z((uLong)crc, (const Bytef *)String_val(s) + pos, (z_size_t)len);
}

value xc_crc32_update_byte(value crc, value s, value pos, value len)
{
  return Val_long(xc_crc32_update(Long_val(crc), s, Long_val(pos), Long_val(len)));
}
