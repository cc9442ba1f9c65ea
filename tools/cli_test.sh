#!/usr/bin/env bash
# Contract cases for the lossyts command line, one per ctest entry (see
# tools/CMakeLists.txt): exit codes (0 ok, 1 runtime error, 2 usage), the
# generated usage text and the strict parsing of numbers. Each case works in
# its own directory, so the cases can run in parallel.
#
# Usage: tools/cli_test.sh <lossyts> <bench-dir> <work-dir> <case>
set -uo pipefail

BIN="$1"
BENCH="$2"
DIR="$3"
CASE="$4"
rm -rf "${DIR}"
mkdir -p "${DIR}"
cd "${DIR}" || exit 1

fail() { echo "FAIL ${CASE}: $*"; exit 1; }

# expect <code> <command...>: runs the command with stdout in out.txt and
# stderr in err.txt, and fails unless it exits with <code>.
expect() {
  local want="$1"
  shift
  "$@" >out.txt 2>err.txt
  local got=$?
  if [[ "${got}" != "${want}" ]]; then
    cat err.txt
    fail "'$*' exited ${got}, wanted ${want}"
  fi
}

# mentions <file> <text>: fails unless <file> contains <text>.
mentions() { grep -qF -- "$2" "$1" || fail "$1 does not mention '$2'"; }

# Every flag of every command, as the usage must spell it.
declare -A FLAGS=(
  [grid]="--resume --fresh --cache --store-dir --build-stores --retries
          --jobs --datasets --models --compressors --error-bounds --seeds
          --metrics"
  [conform]="--cases --seed --codecs --error-bounds --bit-flips --no-mutate
             --jobs"
  [simdcheck]="--cases --seed --codecs --error-bounds"
  [numcheck]="--iters --seed --ops --models --oracles --jobs"
  [store ingest]="--span"
  [store query]="--jobs --no-pushdown"
  [store ingest-grid]="--datasets --compressors --error-bounds"
  [query]="--metrics --agg --group-by --delim --range --jobs --match
           --pred-suffix --season"
  [stream]="--codec --eb --model --metrics --seed --initial-train
            --retrain-window --rolling-window --no-retrain --detector"
  [serve]="--socket --shards --jobs --eb --span --codecs --no-sync
           --flush-wal-bytes --max-queue --deadline-ms --client-timeout-ms
           --stream --stream-eb"
  [client s query]="--metrics --group-by --delim --range --match
                    --pred-suffix --season"
)

case "${CASE}" in
  no_args)
    expect 2 "${BIN}"
    mentions err.txt "usage:"
    ;;
  unknown_command)
    expect 2 "${BIN}" bogus
    expect 2 "${BIN}" store bogus x
    expect 2 "${BIN}" client s bogus
    ;;
  unknown_flag)
    expect 2 "${BIN}" grid --bogus
    mentions err.txt "unknown flag --bogus"
    expect 2 "${BIN}" stats Solar --bogus
    ;;
  missing_value)
    expect 2 "${BIN}" grid --cache
    mentions err.txt "--cache needs <path>"
    expect 2 "${BIN}" query . --range 1
    ;;
  wrong_argument_count)
    expect 2 "${BIN}" compress PMC 0.05 Solar
    expect 2 "${BIN}" stats
    expect 2 "${BIN}" store query f.lts MEAN 0
    ;;
  malformed_flag_number)
    expect 2 "${BIN}" grid --jobs abc
    mentions err.txt "--jobs: 'abc' is not an integer"
    expect 2 "${BIN}" conform --cases 3x
    expect 2 "${BIN}" serve d --shards -1
    expect 2 "${BIN}" serve d --span 4294967296
    mentions err.txt "out of range"
    expect 2 "${BIN}" grid --error-bounds 0.05,x
    expect 2 "${BIN}" stream Solar --detector bogus
    mentions err.txt "unknown detector 'bogus'"
    ;;
  malformed_positional_number)
    expect 2 "${BIN}" compress PMC abc Solar out.lts
    mentions err.txt "'abc'"
    [[ ! -e out.lts ]] || fail "compress wrote output for a bad <eb>"
    expect 2 "${BIN}" store ingest PMC 0.05x Solar out.lts
    ;;
  client_parses_before_connecting)
    # No daemon listens on this socket: malformed input must exit 2, not 1.
    expect 2 "${BIN}" client none.sock append cpu 0 60 1,abc,3
    mentions err.txt "'abc'"
    expect 2 "${BIN}" client none.sock append cpu 0 6o 1,2
    expect 2 "${BIN}" client none.sock read cpu 0 x
    expect 2 "${BIN}" client none.sock query --season x
    expect 1 "${BIN}" client none.sock ping
    ;;
  store_query_negative_range)
    # Blob headers store a signed first timestamp; "-600" is a <t0>.
    printf 'timestamp,value\n-1200,1\n-600,2\n0,3\n600,4\n' >neg.csv
    expect 0 "${BIN}" store ingest PMC 0.05 neg.csv s.lts
    expect 0 "${BIN}" store query s.lts SUM -600 600
    mentions out.txt "SUM[-600, 600] = 9 "
    ;;
  sweep_reports_failures)
    printf 'timestamp,value\n0,1.0\n60,nan\n120,3.0\n' >nan.csv
    expect 1 "${BIN}" sweep nan.csv
    mentions err.txt "finite"
    ;;
  usage_names_every_flag)
    expect 2 "${BIN}"
    for cmd in compress decompress stats sweep grid conform simdcheck \
        numcheck "store ingest" "store query" "store stats" "store verify" \
        "store ingest-grid" query stream serve "client <socket> ping" \
        "client <socket> list" "client <socket> stats" \
        "client <socket> shutdown" "client <socket> stream-info" \
        "client <socket> append" "client <socket> read" \
        "client <socket> query"; do
      mentions err.txt "lossyts ${cmd}"
    done
    # Each command's own usage block lists each of its flags.
    for cmd in "${!FLAGS[@]}"; do
      read -ra words <<<"${cmd}"
      expect 2 "${BIN}" "${words[@]}" --bogus
      for flag in ${FLAGS[${cmd}]}; do
        grep -qE -- "^ +${flag}( |$)" err.txt ||
          fail "usage of '${cmd}' does not list ${flag}"
      done
    done
    ;;
  round_trip)
    expect 0 "${BIN}" compress PMC 0.05 Solar out.lts
    mentions out.txt "PMC: 6570 points"
    expect 0 "${BIN}" decompress out.lts out.csv
    mentions out.txt "wrote 6570 points to out.csv"
    ;;
  bench_flags)
    expect 2 "${BENCH}/micro_store" --bogus
    mentions err.txt "unknown flag --bogus"
    expect 2 "${BENCH}/micro_serve" --jobs 1,x
    expect 2 "${BENCH}/table2_baselines" --jobs
    expect 2 "${BENCH}/figure2_te_cr" stray
    ;;
  *)
    fail "unknown case"
    ;;
esac
echo "ok ${CASE}"
