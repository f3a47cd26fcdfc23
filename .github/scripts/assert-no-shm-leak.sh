#!/bin/sh
# Fail when a POSIX shared-memory segment created through
# multiprocessing.shared_memory (named psm_*) is still in /dev/shm:
# every arena repro.parallel creates must be unlinked on every exit path.
leaked=$(ls /dev/shm 2>/dev/null | grep '^psm_' || true)
if [ -n "$leaked" ]; then
  echo "leaked /dev/shm segments: $leaked"
  exit 1
fi
