let magic = "\x89EPPIDX\n"

type error = Bad_magic | Csv_index | Codec of Index_codec.error

let error_to_string = function
  | Bad_magic -> "not an eppi index file (no \\x89EPPIDX header)"
  | Csv_index ->
      "a CSV index, the old on-disk format: rebuild it with `eppi construct -o FILE`; \
       CSV is now only an export (`eppi export --csv`)"
  | Codec e -> Index_codec.error_to_string e

let csv_header = "# eppi-index"

let bytes_arg n = [ ("bytes", n) ]

let write oc index =
  Eppi_obs.Trace.span "artifact.write" ~args_of:bytes_arg (fun () ->
      let payload = Index_codec.encode index in
      output_string oc magic;
      output_string oc payload;
      flush oc;
      String.length magic + String.length payload)

let payload contents =
  let header = String.length magic in
  if String.starts_with ~prefix:magic contents then
    let payload = String.sub contents header (String.length contents - header) in
    if payload = "" then Error (Codec (Truncated "version byte"))
    else if Char.code payload.[0] <> Index_codec.codec_version then
      Error (Codec (Unsupported_version (Char.code payload.[0])))
    else Ok payload
  else if String.starts_with ~prefix:contents magic then Error (Codec (Truncated "file magic"))
  else if String.starts_with ~prefix:csv_header contents then Error Csv_index
  else Error Bad_magic

let decode contents =
  Result.bind (payload contents) (fun p ->
      Result.map_error (fun e -> Codec e) (Index_codec.decode p))

let read_with parse path =
  snd
    (Eppi_obs.Trace.span "artifact.read"
       ~args_of:(fun (size, _) -> bytes_arg size)
       (fun () ->
         let contents = In_channel.with_open_bin path In_channel.input_all in
         (String.length contents, parse contents)))

let read = read_with decode
let read_payload = read_with payload
