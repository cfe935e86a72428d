package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The host probe times a fixed memory-bound kernel between jobs. The check
// jobs are memory-bound too, and on a shared host their speed follows the
// neighbours' load on the shared cache and memory: over six 25 s runs a
// pool's deck time moved by 16-17% (interquartile range over median) while
// the same figure divided by the probe time around each job moved by 2-10%.
// Scaling each job's times by the probe takes that common factor out; the
// figures as measured are printed beside the scaled ones.

// probeWords is the probe's working set: 32 MB, larger than a core's
// private caches, as the searches' state tables are.
const probeWords = 4 << 20

// probeRefMs is the probe time the scaled figures are expressed at: about
// its median on a quiet 2-vCPU host.
const probeRefMs = 4.0

// probeBuf is mapped outside the Go heap, so the probe does not move the
// garbage collector's pacing of the jobs.
var probeBuf []uint64

// probe runs 200,000 seeded random reads and writes over the probe's
// working set and returns their duration in ms.
func probe() float64 {
	if probeBuf == nil {
		b, err := syscall.Mmap(-1, 0, probeWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic(err)
		}
		probeBuf = unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), probeWords)
	}
	t0 := time.Now()
	x, s := uint64(88172645463325252), uint64(0)
	for i := 0; i < 200_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (probeWords - 1)
		s += probeBuf[j]
		probeBuf[j] = s
	}
	return float64(time.Since(t0)) / 1e6
}

// probeMB is the probe's share of the process's resident set, which the
// RSS figures leave out.
func probeMB() float64 {
	if probeBuf == nil {
		return 0
	}
	return float64(probeWords*8) / (1 << 20)
}
