#!/usr/bin/env bash
# Golden-file regression for dse_tool's export formats: the JSON and CSV
# exports of the canonical width-4 sweep must byte-match the fixtures
# committed under tests/golden/. Catches export format drift (field
# renames, number formatting, row-order changes) locally in ctest instead
# of only in the CI serve smoke.
#
# Two width-16 ripple sweeps at 4096 samples pin the sampled engine the
# same way: every width-16 point is sampled, so a change to the drawn
# pairs, their order or any product moves a metric and breaks the bytes.
#
# The fixtures are legitimate to regenerate ONLY when the export format
# changes on purpose:
#   dse_tool --width 4 --json tests/golden/dse_w4.json --csv tests/golden/dse_w4.csv
#   dse_tool --width 16 --schemes ripple --samples 4096 \
#       --json tests/golden/dse_w16_sampled.json
#   dse_tool --width 16 --schemes ripple --samples 4096 --dist gaussian \
#       --json tests/golden/dse_w16_sampled_gaussian.json
#
# tests/golden/dse_w16_exhaustive.json pins the sliced exhaustive engine
# at width 16, where the accumulation order can break (every sum passes
# 2^53). Its four points cost 2^32 pairs each, so CI's width-16 spot check
# compares it rather than this script. It was written by
#   dse_tool --width 16 --exhaustive-budget 4294967296 \
#       --variants sdlc,compensated --schemes ripple --depth-min 2 \
#       --depth-max 3 --json tests/golden/dse_w16_exhaustive.json
# Usage: golden_export.sh /path/to/dse_tool /path/to/tests/golden
set -u

dse="${1:?usage: golden_export.sh /path/to/dse_tool /path/to/golden_dir}"
golden="${2:?usage: golden_export.sh /path/to/dse_tool /path/to/golden_dir}"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

"$dse" --width 4 --json "$workdir/out.json" --csv "$workdir/out.csv" >/dev/null || {
    echo "FAIL: width-4 sweep failed" >&2
    exit 1
}

failures=0
for kind in json csv; do
    if cmp -s "$golden/dse_w4.$kind" "$workdir/out.$kind"; then
        echo "ok: $kind export matches golden fixture"
    else
        echo "FAIL: $kind export drifted from tests/golden/dse_w4.$kind:" >&2
        diff "$golden/dse_w4.$kind" "$workdir/out.$kind" | head -20 >&2
        failures=$((failures + 1))
    fi
done
for dist in uniform gaussian; do
    name=dse_w16_sampled
    [ "$dist" = uniform ] || name="${name}_$dist"
    "$dse" --width 16 --schemes ripple --samples 4096 --dist "$dist" \
        --json "$workdir/$name.json" >/dev/null || {
        echo "FAIL: width-16 $dist sweep failed" >&2
        exit 1
    }
    if cmp -s "$golden/$name.json" "$workdir/$name.json"; then
        echo "ok: width-16 $dist sampled export matches golden fixture"
    else
        echo "FAIL: width-16 $dist sampled export drifted from tests/golden/$name.json:" >&2
        diff "$golden/$name.json" "$workdir/$name.json" | head -20 >&2
        failures=$((failures + 1))
    fi
done
exit "$failures"
