#!/usr/bin/env bash
# Fail if a shard worker process or shared-memory segment outlived the
# run: a crash path that strands either shows here.  Forked shard
# workers keep the command line of the job that started them, so the
# caller passes a pgrep pattern for it, e.g.
#
#   benchmarks/assert_no_shard_leftovers.sh '[b]ench_shard_recovery'
#
# (bracket one character so pgrep does not match this script's own
# command line).
set -u
pattern="${1:?usage: assert_no_shard_leftovers.sh <pgrep pattern>}"
if pgrep -af "[s]hard_main|${pattern}"; then
  echo "shard processes outlived the run" && exit 1
fi
if ls /dev/shm/shard-* 2>/dev/null; then
  echo "shard segments outlived the run" && exit 1
fi
