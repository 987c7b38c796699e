package main

import (
	"io"
	"math"
	"net"
	"strconv"
	"syscall"
	"time"
)

// Machine-speed reference.
//
// The machines this benchmark runs on are small shared virtual machines.
// Their memory and wake-up latencies drift by ±20 % over minutes, and for
// minutes at a time the host takes a tenth to a half of the processor away
// (steal) — more than any bound below, and slower than any single run, so
// no statistic taken inside one run can remove it. Every timed window is
// therefore cut into segments, and between segments four fixed kernels are
// timed that touch no code of this repository:
//
//   - cache: a dependent-load walk over an 8 MB table;
//   - dram:  the same walk over a 96 MB table;
//   - alu:   formatting integers as decimal text, the instruction-bound
//            work of an encoder, which slows when the core's other
//            hardware thread is busy;
//   - wake:  one-byte round trips over a loopback TCP connection, back to
//            back for a closed loop, spaced like the requests for an open one.
//
// Their geometric mean, over the nominal values frozen below, is how slow
// the machine was beside that segment; times are divided by it and
// closed-loop rates multiplied by it before they are reported ("at nominal
// machine speed"). The raw values and the speed factor are printed too. The
// library workload never enters the kernel, so it leaves the wake kernel out.
// Set-up time is reported as measured: starting a process is mostly the
// kernel's work, which the reference does not follow.
//
// A kernel is timed in chunks of about 0.1 ms. A median latency ignores the
// few operations a stolen time slice lands in, a rate does not, so each is
// corrected by the reference read the same way: rates by the kernels' total
// time, a median latency by the median time of groups of chunks that last
// as long as the operation does.

// Nominal kernel times: medians on the 2-core machine the benchmark was
// first measured on. Frozen; changing them starts a new series.
const (
	nominalCacheNS = 50.0
	nominalDRAMNS  = 146.0
	nominalALUNS   = 14.9
	nominalWakeUS  = 7.9
	// A round trip that starts from an idle machine, 1.33 ms after the one
	// before: the processors have halted and must be woken.
	nominalPacedWakeUS = 27.0
)

// Steps per chunk (about 0.1 ms at nominal speed) and chunks per timing.
const (
	cacheChunk = 2400
	dramChunk  = 640
	aluChunk   = 6000
	wakeChunk  = 10
	refChunks  = 200
	chunkTime  = 100 * time.Microsecond
	pacedTrips = 60
)

var calibSink uint32

// chase is a random cyclic permutation to walk: every load depends on the
// one before, so the walk runs at the latency of wherever the table lives.
type chase struct{ next []uint32 }

func newChase(entries int) *chase {
	next := make([]uint32, entries)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's algorithm: one cycle through all entries.
	x := uint64(2463534242)
	for i := entries - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	return &chase{next}
}

// warm reads the table through once, so that a walk is timed on a table that
// is as resident as its size allows, whatever ran before.
func (c *chase) warm() {
	var sum uint32
	for i := 0; i < len(c.next); i += 16 {
		sum += c.next[i]
	}
	calibSink += sum
}

func (c *chase) walk(steps int) {
	p := calibSink % uint32(len(c.next))
	for i := 0; i < steps; i++ {
		p = c.next[p]
	}
	calibSink = p
}

// reference holds the kernels' tables and the loopback echo connection.
type reference struct {
	cache, dram *chase
	text        []byte
	wake        net.Conn // nil for the library workload
	listener    net.Listener
	// pace > 0 spaces the round trips as an open-loop workload spaces its
	// requests; 0 sends them back to back, as a closed loop does.
	pace time.Duration
	// clock times a kernel's total: the wall clock, or for the library
	// workload its thread's processor time, which leaves stolen time out.
	clock func() time.Duration
}

// newReference sets the kernels up; withWake adds the loopback round trip.
func newReference(withWake bool, clock func() time.Duration) (*reference, error) {
	r := &reference{cache: newChase(2 << 20), dram: newChase(24 << 20), text: make([]byte, 0, 1<<16), clock: clock}
	if !withWake {
		return r, nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.listener = l
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c) // ends when close() closes the dialing side
	}()
	if r.wake, err = net.Dial("tcp", l.Addr().String()); err != nil {
		l.Close()
		return nil, err
	}
	return r, nil
}

// wallClock reads the wall clock as a duration since the process started.
var processStart = time.Now()

func wallClock() time.Duration { return time.Since(processStart) }

// threadClock reads the processor time of the calling thread; the caller
// has locked its goroutine to the thread.
func threadClock() time.Duration {
	var ru syscall.Rusage
	const rusageThread = 1
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return wallClock()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (r *reference) close() {
	if r.wake != nil {
		r.wake.Close()
		r.listener.Close()
	}
}

// kernelTiming is one timing of one kernel: the wall time of each chunk and
// the total on the reference's clock, both over nominal.
type kernelTiming struct {
	chunks []float64
	total  float64
	paced  bool // chunks are single paced round trips: never grouped
}

// speed is one timing of every kernel (about 80 ms).
type speed []kernelTiming

func (r *reference) time(nominalNS float64, chunk func()) kernelTiming {
	k := kernelTiming{chunks: make([]float64, refChunks)}
	c0 := r.clock()
	t0 := time.Now()
	for i := range k.chunks {
		chunk()
		t1 := time.Now()
		k.chunks[i] = float64(t1.Sub(t0)) / nominalNS
		t0 = t1
	}
	k.total = float64(r.clock()-c0) / (refChunks * nominalNS)
	return k
}

// trip is one round trip over the loopback connection.
func (r *reference) trip(buf []byte) bool {
	if _, err := r.wake.Write(buf); err != nil {
		return false
	}
	_, err := io.ReadFull(r.wake, buf)
	return err == nil
}

// measure times the kernels once.
func (r *reference) measure() speed {
	r.cache.warm()
	s := speed{
		r.time(cacheChunk*nominalCacheNS, func() { r.cache.walk(cacheChunk) }),
		r.time(dramChunk*nominalDRAMNS, func() { r.dram.walk(dramChunk) }),
		r.time(aluChunk*nominalALUNS, func() {
			buf := r.text[:0]
			for i := 0; i < aluChunk; i++ {
				if len(buf) > 60000 {
					buf = buf[:0]
				}
				buf = append(strconv.AppendInt(buf, int64(i)*7919+int64(calibSink), 10), ',')
			}
			calibSink += uint32(len(buf))
		}),
	}
	if r.wake == nil {
		return s
	}
	buf := []byte{1}
	ok := true
	var k kernelTiming
	if r.pace == 0 {
		k = r.time(wakeChunk*nominalWakeUS*1e3, func() {
			for i := 0; i < wakeChunk && ok; i++ {
				ok = r.trip(buf)
			}
		})
	} else {
		// Paced as the open loop paces its requests: each trip starts from
		// an idle machine, as each of the workload's requests does.
		k = kernelTiming{chunks: make([]float64, pacedTrips), paced: true}
		due := time.Now()
		for i := range k.chunks {
			due = due.Add(r.pace)
			sleepUntil(due)
			t0 := time.Now()
			ok = ok && r.trip(buf)
			k.chunks[i] = float64(time.Since(t0)) / (nominalPacedWakeUS * 1e3)
		}
		k.total = mean(k.chunks)
	}
	if ok {
		s = append(s, k)
	}
	return s
}

// geomean of f over the kernels of every timing in ss: how slow the machine
// is against nominal, 1.25 meaning times run a quarter long.
func geomean(ss []speed, f func(kernelTiming) float64) float64 {
	kernels := len(ss[0])
	for _, s := range ss {
		kernels = min(kernels, len(s))
	}
	logSum := 0.0
	for k := 0; k < kernels; k++ {
		var vals []float64
		for _, s := range ss {
			vals = append(vals, f(s[k]))
		}
		logSum += math.Log(mean(vals))
	}
	return math.Exp(logSum / float64(kernels))
}

// rateSlowdown is the factor for rates and other totals over the timings ss
// (the ones taken just before and just after what they correct).
func rateSlowdown(ss ...speed) float64 {
	return geomean(ss, func(k kernelTiming) float64 { return k.total })
}

// medianSlowdown is the factor for the median latency of operations that
// last about op: the median over groups of chunks that long.
func medianSlowdown(op time.Duration, ss ...speed) float64 {
	return geomean(ss, func(k kernelTiming) float64 {
		group := 1
		if !k.paced {
			group = int(min(max(op/chunkTime, 1), refChunks/4))
		}
		sums := make([]float64, 0, len(k.chunks)/group)
		for i := 0; i+group <= len(k.chunks); i += group {
			sums = append(sums, mean(k.chunks[i:i+group]))
		}
		return median(sums)
	})
}

func mean(vals []float64) float64 {
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
