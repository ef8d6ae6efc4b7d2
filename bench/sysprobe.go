package main

import (
	"bufio"
	"hash/crc32"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU so far. Wall clock hides the
// garbage collector and parallel workers running on the second core;
// this does not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// memCounters are the allocator totals read at the window's edges.
type memCounters struct {
	mallocs, bytes uint64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

var calibSink uint64

// calibMS times a fixed CPU-and-memory loop (CRC32-C over 1 MiB plus a
// 64k-entry map build, 20 times). It runs before and after the window
// so a reviewer can tell a slow or throttled box from a slow program;
// it annotates a result and never scales or discards one.
func calibMS() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	tab := crc32.MakeTable(crc32.Castagnoli)
	start := time.Now()
	for r := 0; r < 20; r++ {
		calibSink += uint64(crc32.Checksum(buf, tab))
		m := make(map[uint64]uint64, 1<<10)
		for i := uint64(0); i < 1<<16; i++ {
			m[i*0x9e3779b97f4a7c15] = i
		}
		calibSink += uint64(len(m))
	}
	return float64(time.Since(start)) / float64(time.Millisecond)
}
