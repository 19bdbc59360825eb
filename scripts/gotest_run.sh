#!/bin/sh
# gotest_run.sh — run a list of named Go tests uncached, and fail on a
# name that matches no test. `go test -run` passes silently when a
# listed test does not exist, so a deleted or renamed test would leave
# its gate green; every name is checked with `go test -list` first, and
# the missing ones are named.
#
#   sh scripts/gotest_run.sh 'TestA TestB' ./internal/a/ ./internal/b/
#   sh scripts/gotest_run.sh 'TestParent/sub' ./internal/a/
#
# Names are separated by whitespace. A name Parent/sub (alone in its
# list) runs Parent's subtests matching ^sub$; its Parent is checked
# with -list, and the run must report sub as passed.
# Dependency-free: POSIX sh + the Go toolchain.
set -euf

GO="${GO:-go}"
names="$1"
shift

tops=""
for n in $names; do
	tops="$tops ${n%%/*}"
done
listed="$("$GO" test -list "^($(echo $tops | tr ' ' '|'))\$" "$@")"
missing=""
for t in $tops; do
	if ! printf '%s\n' "$listed" | grep -qx "$t"; then
		missing="$missing $t"
	fi
done
if [ -n "$missing" ]; then
	echo "gotest_run: no test named$missing in $*" >&2
	exit 1
fi

names="$(echo $names)"
case "$names" in
*" "*/* | */*" "*)
	echo "gotest_run: a Parent/sub name must be alone in its list: $names" >&2
	exit 1
	;;
*/*)
	out="$("$GO" test -count=1 -v -run "^${names%%/*}\$/^${names#*/}\$" "$@" 2>&1)" || {
		printf '%s\n' "$out"
		exit 1
	}
	printf '%s\n' "$out" | grep '^ok '
	if ! printf '%s\n' "$out" | grep -q -- "--- PASS: $names ("; then
		echo "gotest_run: no subtest $names ran in $*" >&2
		exit 1
	fi
	;;
*)
	"$GO" test -count=1 -run "^($(echo $names | tr ' ' '|'))\$" "$@"
	;;
esac
