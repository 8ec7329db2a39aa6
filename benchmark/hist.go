package main

import (
	"math/bits"
	"time"
)

// hist is a log-linear latency histogram owned by one client goroutine and
// merged into a per-repetition total once the clients have stopped. The
// bucket scheme is internal/loadgen.Hist's with twice the resolution (128
// linear sub-buckets per power of two, 0.8 % bucket width); that type could
// not be reused because it exposes neither its buckets nor a merge, and it
// pays three atomic adds per record for sharing this harness does not need.
type hist struct {
	counts [histMajors * histSub]uint64
	n      uint64
	max    uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMajors  = 30                                        // one linear group below 128 ns, then one per power of two
	histMaxNs   = uint64(1)<<(histMajors+histSubBits-1) - 1 // ≈ 68 s; larger values clamp
)

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	major := bits.Len64(v) - 1
	sub := (v >> (uint(major) - histSubBits)) & (histSub - 1)
	return (major-histSubBits+1)*histSub + int(sub)
}

// histBounds returns the lowest value of bucket idx and the bucket's width.
func histBounds(idx int) (lo, width uint64) {
	if idx < histSub {
		return uint64(idx), 1
	}
	major := uint(idx/histSub + histSubBits - 1)
	sub := uint64(idx % histSub)
	width = uint64(1) << (major - histSubBits)
	return uint64(1)<<major | sub*width, width
}

func (h *hist) record(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	if v > h.max {
		h.max = v
	}
	if v > histMaxNs {
		v = histMaxNs
	}
	h.counts[histBucket(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the latency in nanoseconds at q in [0,1], interpolating
// linearly inside the bucket that holds the rank so that two runs whose
// quantile falls in the same bucket still report what they measured.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	if rank > float64(h.n-1) {
		rank = float64(h.n - 1)
	}
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) > rank {
			lo, width := histBounds(i)
			return float64(lo) + float64(width)*(rank-seen+0.5)/float64(c)
		}
		seen += float64(c)
	}
	return float64(h.max)
}
