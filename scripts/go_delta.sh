#!/usr/bin/env bash
# go_delta.sh prints the Go lines a change adds and removes, and their
# net, from git diff --numstat against a base commit, in three rows:
# production (the root module's non-test .go files), tests (its
# _test.go files) and bench (every .go file under bench/, a module of
# its own).
#
#   bash scripts/go_delta.sh [base [path...]]
#
# base defaults to HEAD, which counts the uncommitted change; paths,
# relative to the repository root, limit the count to those files or
# directories. Untracked files count once they are added (git add -N is
# enough).
set -euo pipefail

cd "$(dirname "$0")/.."

base=${1:-HEAD}
shift || true
git diff --numstat "$base" -- "${@:-.}" | awk '
	$3 !~ /\.go$/ { next }
	{
		k = "production"
		if ($3 ~ /^bench\//) k = "bench"
		else if ($3 ~ /_test\.go$/) k = "tests"
		add[k] += $1
		del[k] += $2
	}
	END {
		n = split("production tests bench", ks, " ")
		for (i = 1; i <= n; i++) {
			k = ks[i]
			printf "%-10s +%d -%d net %+d\n", k, add[k], del[k], add[k] - del[k]
		}
	}'
