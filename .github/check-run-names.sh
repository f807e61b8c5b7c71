#!/usr/bin/env bash
# Fails when an alternative of a `go test -run '<a>|<b>|...'` filter in the
# CI workflow matches no test, fuzz target, benchmark or example of the
# packages the command names, so renaming or deleting a test cannot
# silently drop a suite from a named CI step. The '^$' filter (run no
# tests) is skipped.
#
#   bash .github/check-run-names.sh [workflow.yml]
set -euo pipefail
wf=${1:-.github/workflows/ci.yml}
fail=0
while read -r line; do
	read -ra words <<<"${line#*go test }"
	pattern="" pkgs=()
	for ((i = 0; i < ${#words[@]}; i++)); do
		w=${words[i]}
		if [[ $w == -run ]]; then
			i=$((i + 1))
			pattern=${words[i]//\'/}
		elif [[ $w == .* ]]; then
			pkgs+=("$w")
		fi
	done
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		[[ $alt == '^$' ]] && continue
		listed=$(go test -list "$alt" "${pkgs[@]}" </dev/null)
		if ! grep -qE '^(Test|Fuzz|Benchmark|Example)' <<<"$listed"; then
			echo "$wf: -run alternative '$alt' matches nothing in ${pkgs[*]}" >&2
			fail=1
		fi
	done
done < <(grep -oE "go test .*-run .*" "$wf")
exit $fail
