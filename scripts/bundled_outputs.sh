#!/usr/bin/env bash
# Run a fixed list of CLI commands over the bundled configs and write every
# output under one directory, so two source trees can be compared with
# `diff -r`.
#
# Usage: scripts/bundled_outputs.sh TREE OUT
#   TREE  a checkout of this repository; its src/ and configs/ are used
#   OUT   output directory (created; must not exist yet)
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 TREE OUT" >&2
    exit 2
fi
tree=$(cd "$1" && pwd)
out=$2
if [ -e "$out" ]; then
    echo "$0: $out already exists" >&2
    exit 2
fi
mkdir -p "$out"
out=$(cd "$out" && pwd)

cfg="$tree/configs"
blockspec() {
    PYTHONPATH="$tree/src" python3 -m blockspec.cli "$@" --model-config "$cfg/toy_model.json"
}
cli() {
    blockspec "$@" --tasks "$cfg/tasks_demo.jsonl"
}
profile=(--profile "$cfg/profile_a100.json")
scripted=(--scripted "$cfg/schedule_eos87.json")

for strategy in vanilla fast odb; do
    cli run --strategy "$strategy" "${profile[@]}" --dump-mask --out "$out/run_toy_$strategy"
    cli run --strategy "$strategy" "${profile[@]}" --dump-mask "${scripted[@]}" \
        --out "$out/run_scripted_$strategy"
done
cli run --strategy odb --out "$out/run_toy_odb_noprofile"
# the stage rule away from its default threshold: every speculative step at
# stage 2, and a block that stays at stage 1 for longer
for decoded in 1 16; do
    cli run --strategy odb --stage2-min-decoded "$decoded" --dump-mask \
        --out "$out/run_toy_odb_stage2_min_$decoded"
done
cli run --strategy odb "${scripted[@]}" --out "$out/run_scripted_odb_noprofile"
cli compare --strategies vanilla fast odb "${profile[@]}" --out "$out/compare_toy"
# the paper's baseline (LLaDA, one token per step) from its bundled run config
baseline=(--strategy vanilla "${profile[@]}" --run-config "$cfg/run_llada_baseline.json")
cli run "${baseline[@]}" --out "$out/run_toy_llada_baseline"
cli run "${baseline[@]}" "${scripted[@]}" --out "$out/run_scripted_llada_baseline"
# settings from a --run-config document instead of flags
echo '{"block_size": 16, "accept_threshold": 0.8, "truncate_threshold": 0.85}' > "$out/run_config.json"
cli run --strategy odb "${scripted[@]}" --run-config "$out/run_config.json" \
    --out "$out/run_scripted_odb_document"
# seeded synthetic tasks and their scripted schedule, then a run over both
gen=(--count 4 --prompt-len 12 --seed 9 --gen-length 64 --eos-offset 40)
blockspec gen-tasks "${gen[@]}" --out "$out/gen_tasks/tasks.jsonl" \
    --schedule-out "$out/gen_tasks/schedule.json"
blockspec run --strategy odb --tasks "$out/gen_tasks/tasks.jsonl" \
    --scripted "$out/gen_tasks/schedule.json" --gen-length 64 --block-size 16 \
    --out "$out/run_gen_tasks_odb"
# the same tasks with their only EOS in the last block, where a cut would
# keep the length: no truncation, and the last two refreshes draft nothing
last=(--count 4 --prompt-len 12 --seed 9 --gen-length 64 --eos-offset 56)
blockspec gen-tasks "${last[@]}" --out "$out/gen_tasks_eos_last_block/tasks.jsonl" \
    --schedule-out "$out/gen_tasks_eos_last_block/schedule.json"
blockspec run --strategy odb --tasks "$out/gen_tasks_eos_last_block/tasks.jsonl" \
    --scripted "$out/gen_tasks_eos_last_block/schedule.json" --gen-length 64 --block-size 16 \
    --out "$out/run_gen_tasks_eos_last_block_odb"
