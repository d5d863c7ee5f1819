#!/usr/bin/env bash
# Compares where the datapath's code lands in two builds of unbench: one from
# the revision BASE (extracted with `git archive` into a temporary directory)
# and one from the working tree. Go aligns functions to 32 bytes, so an edit
# that changes the compiled size of code laid out ahead of the datapath core
# by an odd multiple of 32 bytes moves every hot function by half a cache
# line, which moves fwd-flows with the packet path unchanged.
#
#   bash scripts/layout.sh HEAD~      # or: make layout BASE=HEAD~
#
# It prints every repro/internal/{vswitch,netdev} text symbol whose address
# mod 64 differs between the two builds, and exits 1 if one of them is a
# datapath-core symbol. Nothing in the checkout is written.
set -euo pipefail
base="${1:?usage: layout.sh <base revision>}"
root="$(git rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

export GOTOOLCHAIN=local
mkdir -p "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base/benchmarks/unbench" && go build -o "$tmp/base.bin" .)
(cd "$root/benchmarks/unbench" && go build -o "$tmp/work.bin" .)

# name -> address mod 64, text symbols of the two datapath packages only.
syms() {
	go tool nm -size -sort address "$1" |
		awk '$3 ~ /^[Tt]$/ && $4 ~ /^repro\/internal\/(vswitch|netdev)\./ {
			name = $0
			sub(/^ *[^ ]+ +[^ ]+ +[^ ]+ +/, "", name)
			lo = tolower(substr($1, length($1) - 1))
			printf "%s\t%d\n", name, (16 * index("0123456789abcdef", substr(lo, 1, 1)) - 16 + index("0123456789abcdef", substr(lo, 2, 1)) - 1) % 64 }' | sort -t "$(printf '\t')" -k1,1
}
syms "$tmp/base.bin" >"$tmp/base.syms"
syms "$tmp/work.bin" >"$tmp/work.syms"

# The symbols a frame runs through on every hop (lane.go, switch.go,
# match.go, txcoalesce.go).
core='^repro/internal/vswitch\.(\(\*Switch\)\.runInline|\(\*lane\)\.forward|\(\*Switch\)\.execute|Match\.matches|\(\*Match\)\.matches|\(\*Switch\)\.receive|\(\*Switch\)\.output|\(\*txCoalescer\)\.[A-Za-z0-9_]+)$'

tab="$(printf '\t')"
join -t "$tab" "$tmp/base.syms" "$tmp/work.syms" | awk -F "$tab" '$2 != $3 { print $1 "\tbase=" $2 " work=" $3 }' >"$tmp/moved"
moved=$(wc -l <"$tmp/moved")
echo "layout: $moved vswitch/netdev symbol(s) changed address mod 64 ($base -> working tree)"
cat "$tmp/moved"
if cut -f1 "$tmp/moved" | grep -Eq "$core"; then
	echo "layout: a datapath-core symbol moved:"
	cut -f1 "$tmp/moved" | grep -E "$core"
	exit 1
fi
echo "layout: every datapath-core symbol kept its address mod 64"
