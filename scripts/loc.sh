#!/usr/bin/env bash
# Non-test line count of the repository: every `.rs` file under
# `crates/*/src`, `src/` and `examples/`, each counted up to its first
# `#[cfg(test)]` line. The vendored `proptest` and `criterion` shims are
# not the project's code and are left out. Prints one line per crate (the
# root package's `src/` and `examples/` apart) and the total.
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of the given files, each up to its first `#[cfg(test)]`.
count() {
    if [ "$#" -eq 0 ]; then
        echo 0
        return
    fi
    awk 'FNR == 1 { live = 1 } /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 } live { n++ } END { print n + 0 }' "$@"
}

total=0
report() {
    local label="$1" dir="$2"
    local files=()
    while IFS= read -r f; do
        files+=("$f")
    done < <(find "$dir" -name '*.rs' -type f | sort)
    local n
    n=$(count "${files[@]+"${files[@]}"}")
    printf '%7d  %s\n' "$n" "$label"
    total=$((total + n))
}

for dir in crates/*/src; do
    crate=$(basename "$(dirname "$dir")")
    case "$crate" in
    proptest | criterion) continue ;;
    esac
    report "crates/$crate" "$dir"
done
report "src" src
report "examples" examples
printf '%7d  %s\n' "$total" "total"
