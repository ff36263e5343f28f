#!/bin/sh
# Runs the revert corpus: every .github/mutants/NAME.patch undoes one
# fixed bug. Each patch is applied to a fresh copy of the tree, and the
# tests its header names ("Tests:", in the packages its "Package:" line
# names) must then fail: the mutant is killed. The general checkers
# below run against each mutant too; their cells are reported, not
# required. The script exits 1 if a patch no longer applies or a mutant
# survives its own tests.
#
#   sh .github/mutants/run.sh            # every patch
#   sh .github/mutants/run.sh NAME ...   # the named patches only
set -u
root=$(cd "$(dirname "$0")/../.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# General checkers: "package:test regexp" pairs that no patch names.
general="./internal/dlm:^TestProtocolComposed$ ./internal/workload:^TestRunReaderFan$ ./internal/cluster:^TestVirtualReaderFan"

# Every test run is bounded, so a mutant that hangs reads "killed" in
# bounded time instead of stalling for go's default 10 minutes. The
# slowest cell on unmutated code, TestProtocolComposed, runs in under
# a second.
timeout=30s

# verdict runs go test on the packages $1 in the copy and prints
# "killed" if it fails.
verdict() {
	if (cd "$work/tree" && go test -count=1 -timeout "$timeout" -run "$2" $1 >"$work/out" 2>&1); then
		echo survived
	else
		echo killed
	fi
}

if [ $# -gt 0 ]; then
	patches=""
	for n in "$@"; do patches="$patches $root/.github/mutants/$n.patch"; done
else
	patches=$(ls "$root"/.github/mutants/*.patch)
fi

status=0
printf '%-28s %-8s' mutant own
for g in $general; do printf ' %s' "${g#*:}"; done
echo
for p in $patches; do
	name=$(basename "$p" .patch)
	pkg=$(sed -n 's/^Package: //p' "$p")
	tests=$(sed -n 's/^Tests: //p' "$p" | tr ' ' '|')
	rm -rf "$work/tree"
	mkdir "$work/tree"
	tar -C "$root" --exclude=.git -cf - . | tar -C "$work/tree" -xf -
	if ! (cd "$work/tree" && git apply "$p"); then
		echo "$name: patch does not apply" >&2
		status=1
		continue
	fi
	own=$(verdict "$pkg" "^($tests)\$")
	if [ "$own" = survived ]; then
		status=1
	fi
	printf '%-28s %-8s' "$name" "$own"
	for g in $general; do printf ' %s' "$(verdict "${g%%:*}" "${g#*:}")"; done
	echo
done
exit $status
