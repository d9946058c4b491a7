#!/usr/bin/env bash
# Checks that the test suite kills each committed mutant. A mutant is a
# git-apply-able patch whose header names the package ("Package: ./pkg")
# and the tests that must catch it ("Fails: TestA TestB"). Each patch is
# applied to a temporary copy of the working tree (tracked and untracked
# files, minus what .gitignore names); the mutated tree must build, and
# every named test must run and fail.
#
#	bash testdata/mutants/run.sh                  # every mutant
#	bash testdata/mutants/run.sh short-horizon    # one, by name
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
if [ $# -eq 0 ]; then
	set -- "$root"/testdata/mutants/*.patch
fi
status=0
for arg in "$@"; do
	patch=$arg
	[ -f "$patch" ] || patch="$root/testdata/mutants/$arg.patch"
	name=$(basename "$patch" .patch)
	pkg=$(sed -n 's/^Package: *//p' "$patch" | head -n 1)
	tests=$(sed -n 's/^Fails: *//p' "$patch" | head -n 1)
	if [ -z "$pkg" ] || [ -z "$tests" ]; then
		echo "$name: the header names no Package or no Fails"
		status=1
		continue
	fi
	tmp=$(mktemp -d)
	(cd "$root" && git ls-files -z -co --exclude-standard | tar --null --ignore-failed-read -T - -cf -) 2>/dev/null | tar -xf - -C "$tmp"
	if ! (cd "$tmp" && git apply "$patch"); then
		echo "$name: does not apply"
		status=1
	elif ! (cd "$tmp" && go build ./...); then
		echo "$name: does not build"
		status=1
	else
		out=$(cd "$tmp" && go test -count=1 -run "^(${tests// /|})\$" "$pkg" 2>&1) || true
		for t in $tests; do
			if grep -q -- "^--- FAIL: $t " <<<"$out"; then
				echo "$name: $t fails, as it must"
			else
				echo "$name: $t does not fail"
				printf '%s\n' "$out"
				status=1
			fi
		done
	fi
	rm -rf "$tmp"
done
exit "$status"
