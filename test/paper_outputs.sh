#!/bin/sh
# Checks the paper's rendered results against pinned digests.
#
# Each line of test/paper_outputs.sha256 is "<sha256>  <mlbs arguments>":
# the digest of what `mlbs <arguments>` prints. A change that moves a
# cell of a figure, table or trace updates the line and says why in
# CHANGES.md. Run from the repository root:
#
#   sh test/paper_outputs.sh
set -eu
dune build bin/mlbs_cli.exe
mlbs=_build/default/bin/mlbs_cli.exe
status=0
while read -r want args; do
  # shellcheck disable=SC2086 # the arguments are meant to split
  got=$("$mlbs" $args | sha256sum | cut -d' ' -f1)
  if [ "$got" = "$want" ]; then
    echo "ok       mlbs $args"
  else
    echo "MOVED    mlbs $args: $got, pinned $want"
    status=1
  fi
done < test/paper_outputs.sha256
exit "$status"
