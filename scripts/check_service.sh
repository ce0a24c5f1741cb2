#!/bin/sh
# Service-layer CI gate (docs/SERVICE.md).
#
# Exports the 708-program selftest corpus, batches it twice through the
# same on-disk verdict cache, and asserts the service contract:
#
#   1. per-program results are byte-identical between the cold and warm
#      passes once the one history-dependent field ("cache":...) is
#      stripped — the cache changes latency, never verdicts;
#   2. the warm pass answers >= 95% of programs from the cache;
#   3. no program comes back as a decode/parse error;
#   4. a cold `bvf serve` over the whole corpus, fresh in-memory cache,
#      answers byte-identically to the cold batch (cache field
#      stripped): the serve loop parses each line once and dispatches
#      metrics and program requests from that one parse.
#
# Usage: scripts/check_service.sh [outdir] [bvf-binary]
set -u

out=${1:-service-out}
bvf=${2:-_build/default/bin/bvf.exe}

[ -x "$bvf" ] || { echo "missing $bvf (run: dune build)" >&2; exit 2; }
mkdir -p "$out"

echo "== exporting selftest corpus"
"$bvf" selftests --count 708 --export "$out/corpus.jsonl" || exit 3

echo "== cold batch"
"$bvf" batch --jobs 4 --cache-file "$out/cache.bin" \
  --out "$out/cold.jsonl" "$out/corpus.jsonl" \
  2> "$out/cold-summary.json" || exit 3
cat "$out/cold-summary.json"

echo "== warm batch (same cache file)"
"$bvf" batch --jobs 4 --cache-file "$out/cache.bin" \
  --out "$out/warm.jsonl" "$out/corpus.jsonl" \
  2> "$out/warm-summary.json" || exit 3
cat "$out/warm-summary.json"

status=0

# 1. byte-identity up to the cache field
sed 's/,"cache":"[a-z]*"//' "$out/cold.jsonl" > "$out/cold.stripped"
sed 's/,"cache":"[a-z]*"//' "$out/warm.jsonl" > "$out/warm.stripped"
if cmp -s "$out/cold.stripped" "$out/warm.stripped"; then
  echo "ok    warm results byte-identical to cold (cache field stripped)"
else
  echo "FAIL  warm results differ from cold:"
  diff "$out/cold.stripped" "$out/warm.stripped" | head -20
  status=1
fi

# 2. warm hit rate >= 95%
total=$(wc -l < "$out/warm.jsonl")
hits=$(grep -c '"cache":"hit"' "$out/warm.jsonl")
if [ "$total" -gt 0 ] && [ $((hits * 100)) -ge $((total * 95)) ]; then
  echo "ok    warm hit rate: $hits/$total"
else
  echo "FAIL  warm hit rate below 95%: $hits/$total"
  status=1
fi

# 3. every program decoded and verified (error responses carry no key)
errors=$(grep -c '"verdict":"error"' "$out/cold.jsonl" || true)
if [ "$errors" -eq 0 ]; then
  echo "ok    no decode/parse errors"
else
  echo "FAIL  $errors error responses in the cold pass"
  status=1
fi

# 4. cold serve over the whole corpus == cold batch
echo "== cold serve (whole corpus, fresh cache)"
"$bvf" serve < "$out/corpus.jsonl" \
  > "$out/serve-cold.jsonl" 2> "$out/serve-cold.log" || exit 3
cat "$out/serve-cold.log"
sed 's/,"cache":"[a-z]*"//' "$out/serve-cold.jsonl" > "$out/serve-cold.stripped"
if cmp -s "$out/cold.stripped" "$out/serve-cold.stripped"; then
  echo "ok    cold serve byte-identical to cold batch (cache field stripped)"
else
  echo "FAIL  cold serve differs from cold batch:"
  diff "$out/cold.stripped" "$out/serve-cold.stripped" | head -20
  status=1
fi

# serve smoke: the same requests through the request loop, warm cache
echo "== serve smoke"
head -5 "$out/corpus.jsonl" \
  | "$bvf" serve --cache-file "$out/cache.bin" \
      > "$out/serve.jsonl" 2> "$out/serve.log" || exit 3
cat "$out/serve.log"
served=$(wc -l < "$out/serve.jsonl")
serve_hits=$(grep -c '"cache":"hit"' "$out/serve.jsonl")
if [ "$served" -eq 5 ] && [ "$serve_hits" -eq 5 ]; then
  echo "ok    serve answered 5/5 from the warmed cache"
else
  echo "FAIL  serve answered $served requests, $serve_hits from cache"
  status=1
fi

exit $status
