package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// splitmix64 derives independent sub-seeds from the workload seed, so every
// input and schedule is a pure function of --seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// rng is a small seeded generator for schedules and edge batches.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return splitmix64(r.s)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linearly interpolated q-quantile (0 <= q <= 1) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqr is the distance between the first and third quartiles.
func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// tail returns the highest percentile of the ladder that has at least ten
// samples beyond it, with its value; ok is false below 20 samples.
func tail(xs []float64) (pct, value float64, ok bool) {
	for _, p := range []float64{99.9, 99.5, 99, 95, 90, 75, 50} {
		if float64(len(xs))*(1-p/100) >= 10 {
			return p, quantile(xs, p/100), true
		}
	}
	return 0, 0, false
}

// percentileAt returns the p-th percentile when at least ten samples lie
// beyond it, else the highest supported tail.
func percentileAt(xs []float64, p float64) (usedPct, value float64) {
	if float64(len(xs))*(1-p/100) >= 10 {
		return p, quantile(xs, p/100)
	}
	tp, tv, _ := tail(xs)
	return tp, tv
}

// peakRSSMB reads VmHWM (peak resident set) of a process from /proc.
func peakRSSMB(pid string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseFloat(fields[1], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
