package main

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"regexp"
	"time"
)

// refCalibration is what calibrator.measure reads on an uncontended
// 2-vCPU Intel Xeon VM, the reference machine: host times are reported
// in that machine's seconds.
const refCalibration = 7.5e-4

// A calibrator times a fixed mix of standard-library work — regular
// expression matching, DEFLATE compression, JSON encoding and map
// updates — to read how fast the host runs code like the simulator's
// right now. A shared host slows this process by tens of percent for
// tens of seconds at a time, by contention the process cannot see;
// these kernels, with their large code and data footprints, slow down
// with the simulator, while a small arithmetic loop barely does. The
// benchmark scales each measured time by refCalibration over the
// reading taken around it. The kernels allocate nothing once warm, so
// the simulator's heap cannot make them slower through the collector.
type calibrator struct {
	re   *regexp.Regexp
	text []byte
	fw   *flate.Writer
	enc  *json.Encoder
	jbuf bytes.Buffer
	recs []calRecord
	m    map[uint64]uint64
	keys []uint64
}

// calRecord is the JSON kernel's payload.
type calRecord struct {
	ID     int
	Name   string
	Values []float64
	Flags  []bool
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{
		re:   regexp.MustCompile(`(a+b|c[de]f|g.h)+x`),
		text: make([]byte, 20_000),
		m:    map[uint64]uint64{},
	}
	for i := range c.text {
		c.text[i] = byte('a' + rng.Intn(8) + i/1000%4)
	}
	fw, err := flate.NewWriter(io.Discard, 5)
	if err != nil {
		panic(fmt.Sprintf("calibrator: %v", err))
	}
	c.fw = fw
	c.enc = json.NewEncoder(&c.jbuf)
	for range 480 {
		r := calRecord{ID: rng.Int(), Name: fmt.Sprint(rng.Int63())}
		for j := range 8 {
			r.Values = append(r.Values, rng.Float64())
			r.Flags = append(r.Flags, j%3 == 0)
		}
		c.recs = append(c.recs, r)
	}
	for range 4096 {
		k := rng.Uint64()
		c.m[k] = 0
		c.keys = append(c.keys, k)
	}
	c.measure() // warm every kernel's buffers and pools
	return c
}

// measure returns the geometric mean, over the kernels, of each
// kernel's faster of two runs in CPU seconds.
func (c *calibrator) measure() float64 {
	kernels := [...]func(){c.regexp, c.deflate, c.json, c.maps}
	var logSum float64
	for _, k := range kernels {
		best := math.Inf(1)
		for range 2 {
			t0 := cpuTime()
			k()
			best = min(best, (cpuTime() - t0).Seconds())
		}
		logSum += math.Log(best)
	}
	return math.Exp(logSum / float64(len(kernels)))
}

// calSink keeps the kernels' results live.
var calSink int

func (c *calibrator) regexp() {
	for i := 0; i+2000 <= len(c.text); i += 3000 {
		if c.re.Match(c.text[i : i+2000]) {
			calSink++
		}
	}
}

func (c *calibrator) deflate() {
	c.fw.Reset(io.Discard)
	if _, err := c.fw.Write(c.text); err != nil {
		panic(fmt.Sprintf("calibrator: %v", err))
	}
	if err := c.fw.Close(); err != nil {
		panic(fmt.Sprintf("calibrator: %v", err))
	}
}

func (c *calibrator) json() {
	c.jbuf.Reset()
	if err := c.enc.Encode(&c.recs); err != nil {
		panic(fmt.Sprintf("calibrator: %v", err))
	}
	calSink += c.jbuf.Len()
}

func (c *calibrator) maps() {
	x := uint64(1)
	for range 60_000 {
		x = x*6364136223846793005 + 1442695040888963407
		c.m[c.keys[x>>52]] += x
	}
}

// refClock times work in reference seconds: CPU time scaled by
// refCalibration over the geometric mean of the calibration readings
// taken just before and just after it.
type refClock struct {
	cal  *calibrator
	last float64 // the latest calibration reading
}

func newRefClock() *refClock {
	c := newCalibrator()
	return &refClock{cal: c, last: c.measure()}
}

// time runs f and returns its CPU time in reference seconds.
func (rc *refClock) time(f func()) float64 {
	t0 := cpuTime()
	f()
	t := cpuTime() - t0
	after := rc.cal.measure()
	ref := time.Duration(float64(t) * refCalibration / math.Sqrt(rc.last*after))
	rc.last = after
	return ref.Seconds()
}
