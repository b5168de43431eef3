#!/usr/bin/env bash
# Runs the mutation catalog. Each scripts/mutants/NN-name.patch is one
# deliberate bug, and its header lines "# must fail: <command>" name the
# checks that must catch it. For each patch the script unpacks HEAD with
# git archive into a temporary directory, applies the patch, requires the
# mutated tree to build, and runs each named command there, which must
# exit non-zero. A patch that no longer applies fails the catalog too, so
# a change that moves the mutated code refreshes its patch. Run it from
# the repository root, on every patch or on the ones named:
#
#   bash scripts/mutants.sh
#   bash scripts/mutants.sh scripts/mutants/02-beam-margin-zero.patch
set -uo pipefail

root=$(git rev-parse --show-toplevel)
patches=("$@")
if [ ${#patches[@]} -eq 0 ]; then
	patches=("$root"/scripts/mutants/*.patch)
fi
status=0
for patch in "${patches[@]}"; do
	patch=$(realpath "$patch")
	name=$(basename "$patch" .patch)
	mapfile -t cmds < <(sed -n '/^--- /q; s/^# must fail: //p' "$patch")
	if [ ${#cmds[@]} -eq 0 ]; then
		echo "FAIL $name: no '# must fail:' line"
		status=1
		continue
	fi
	dir=$(mktemp -d)
	git -C "$root" archive HEAD | tar -x -C "$dir"
	if ! (cd "$dir" && git apply "$patch"); then
		echo "FAIL $name: does not apply to HEAD"
		status=1
	elif ! (cd "$dir" && go build ./...); then
		echo "FAIL $name: does not build"
		status=1
	else
		for cmd in "${cmds[@]}"; do
			if (cd "$dir" && bash -c "$cmd") >"$dir.log" 2>&1; then
				echo "FAIL $name: survived $cmd"
				status=1
			else
				echo "ok   $name: caught by $cmd"
			fi
		done
	fi
	rm -rf "$dir" "$dir.log"
done
exit $status
