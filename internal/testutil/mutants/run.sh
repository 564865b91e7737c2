#!/usr/bin/env bash
# The mutant ledger. Each NN-name.patch here is a recorded bug: a unified
# diff against the committed tree whose "Command:" header lines name the
# go test commands that must catch it. run.sh copies the committed tree
# (git archive HEAD) into a temporary directory, checks that the unpatched
# copy passes every named command, then applies each patch to a fresh copy
# and fails unless the copy builds and each of its commands fails there.
#
#   bash internal/testutil/mutants/run.sh              # every patch
#   bash internal/testutil/mutants/run.sh 03-*.patch   # some of them
#
# To record a mutant: edit a scratch copy, write the diff with a/ and b/
# paths from the repository root, put a one-line description and one
# "Command:" line per catching command above it, and run this script.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(git -C "$here" rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

patches=("$@")
if [ ${#patches[@]} -eq 0 ]; then
	patches=("$here"/*.patch)
fi
mkdir "$work/clean"
git -C "$root" archive HEAD | tar -x -C "$work/clean"

commands() { sed -n 's/^Command: //p' "$1"; }

status=0
while IFS= read -r cmd; do
	if ! (cd "$work/clean" && eval "$cmd") >"$work/log" 2>&1; then
		echo "FAIL unpatched tree: $cmd"
		tail -20 "$work/log"
		status=1
	fi
done < <(for p in "${patches[@]}"; do commands "$p"; done | sort -u)

for p in "${patches[@]}"; do
	rm -rf "$work/mutant"
	cp -r "$work/clean" "$work/mutant"
	(cd "$work/mutant" && patch -s -p1) <"$p"
	if ! (cd "$work/mutant" && go build ./...) >"$work/log" 2>&1; then
		echo "FAIL $(basename "$p") does not build"
		tail -20 "$work/log"
		status=1
		continue
	fi
	while IFS= read -r cmd; do
		if (cd "$work/mutant" && eval "$cmd") >"$work/log" 2>&1; then
			echo "FAIL $(basename "$p") survives: $cmd"
			status=1
		else
			echo "ok   $(basename "$p") caught: $cmd"
		fi
	done < <(commands "$p")
done
exit $status
