package main

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(poissonSchedule(7, 0, 18, 10*time.Second), poissonSchedule(7, 0, 18, 10*time.Second)) {
		t.Error("the same seed gave two schedules")
	}
	if reflect.DeepEqual(poissonSchedule(7, 0, 18, 10*time.Second), poissonSchedule(8, 0, 18, 10*time.Second)) {
		t.Error("two seeds gave the same schedule")
	}
	if reflect.DeepEqual(poissonSchedule(7, 0, 18, 10*time.Second), poissonSchedule(7, 1, 18, 10*time.Second)) {
		t.Error("two rounds gave the same schedule")
	}
	if !bytes.Equal(message(7, streamOpen, 3), message(7, streamOpen, 3)) {
		t.Error("the same seed gave two messages")
	}
	for _, other := range [][]byte{message(8, streamOpen, 3), message(7, streamClosed, 3), message(7, streamOpen, 4)} {
		if bytes.Equal(message(7, streamOpen, 3), other) {
			t.Error("distinct (seed, stream, index) gave the same message")
		}
	}
	k1, err := masterKey(7)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := masterKey(7)
	k3, _ := masterKey(8)
	if !bytes.Equal(k1.Bytes(), k2.Bytes()) || bytes.Equal(k1.Bytes(), k3.Bytes()) {
		t.Error("master key is not a function of the seed")
	}
}

func TestPoissonScheduleShape(t *testing.T) {
	const rate, span = 40.0, 100 * time.Second
	s := poissonSchedule(3, 0, rate, span)
	if len(s) != int(rate*span.Seconds()) {
		t.Fatalf("%d arrivals, want %v", len(s), rate*span.Seconds())
	}
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] || s[i] >= span {
			t.Fatalf("schedule not sorted inside the span at %d: %v, %v", i, s[i-1], s[i])
		}
	}
	// Poisson gaps are exponential: their coefficient of variation is 1.
	var gaps []float64
	for i := 1; i < len(s); i++ {
		gaps = append(gaps, float64(s[i]-s[i-1]))
	}
	m := mean(gaps)
	v := 0.0
	for _, g := range gaps {
		v += (g - m) * (g - m)
	}
	if cv := math.Sqrt(v/float64(len(gaps))) / m; math.Abs(cv-1) > 0.1 {
		t.Errorf("gap coefficient of variation %.2f, want about 1", cv)
	}
}

func TestVerifyPoolForgesSeededShare(t *testing.T) {
	key, err := masterKey(5)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := newVerifyPool(5, key, 4)
	if err != nil {
		t.Fatal(err)
	}
	forged := 0
	const n = 4000
	for r := uint64(0); r < n/16; r++ {
		for j := 0; j < 16; j++ {
			m1, s1, f1 := pool.pair(streamOpen, r, j, 16)
			m2, s2, f2 := pool.pair(streamOpen, r, j, 16)
			if !bytes.Equal(m1, m2) || !bytes.Equal(s1, s2) || f1 != f2 {
				t.Fatal("the same (stream, request, slot) gave two pairs")
			}
			genuine := pool.sigs[(r*16+uint64(j))%4]
			if f1 {
				forged++
				if diff := differingBytes(s1, genuine); diff != 1 {
					t.Fatalf("forged signature differs in %d bytes, want 1", diff)
				}
			} else if !bytes.Equal(s1, genuine) {
				t.Fatal("genuine pair does not carry the pool signature")
			}
		}
	}
	if share := float64(forged) / n; math.Abs(share-1.0/forgeEvery) > 0.03 {
		t.Errorf("forged share %.3f, want about %.3f", share, 1.0/forgeEvery)
	}
}

func differingBytes(a, b []byte) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := percentile(xs, 0.5); got != 100 {
		t.Errorf("p50 = %v, want 100", got)
	}
	if got := percentile(xs, 0.99); got != 198 {
		t.Errorf("p99 = %v, want 198", got)
	}
	xs[0] = math.Inf(1)
	xs[1] = math.Inf(1)
	xs[2] = math.Inf(1)
	if got := percentile(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 3 failures in 200 = %v, want +Inf", got)
	}
	if got := beyond(200, 0.99); got != 2 {
		t.Errorf("beyond(200, 0.99) = %d, want 2", got)
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
}

func TestSigStoreKeepsSignaturesOffHeap(t *testing.T) {
	s := newSigStore(0)
	sig := bytes.Repeat([]byte{7}, 17088)
	for i := 0; i < 100; i++ {
		s.add(streamOpen, uint64(i), sig)
	}
	per := sigChunk / len(sig)
	if want := (100 + per - 1) / per; len(s.chunks) != want {
		t.Errorf("%d chunks, want %d", len(s.chunks), want)
	}
	if want := int64(len(s.chunks)-len(s.mapped)) * sigChunk; s.heldBytes() != want {
		t.Errorf("held %d heap bytes, want %d", s.heldBytes(), want)
	}
	if len(s.mapped) != len(s.chunks) {
		t.Errorf("%d of %d chunks mapped outside the heap", len(s.mapped), len(s.chunks))
	}
	for _, r := range s.recs {
		if !bytes.Equal(s.sig(r), sig) {
			t.Fatal("stored signature differs")
		}
	}
	if err := s.release(); err != nil {
		t.Fatal(err)
	}
	if len(s.recs) != 0 || s.heldBytes() != 0 {
		t.Error("release left signatures behind")
	}
}

func TestRegIncBeta(t *testing.T) {
	for _, c := range []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3},             // uniform CDF
		{2, 1, 0.5, 0.25},            // x^2
		{1, 3, 0.2, 1 - 0.8*0.8*0.8}, // 1-(1-x)^3
		{5, 5, 0.5, 0.5},             // symmetric
		{200, 2, 0.99, 0.40194},      // x^a (1 + a(1-x)) for b = 2
	} {
		if got := regIncBeta(c.a, c.b, c.x); math.Abs(got-c.want) > 1e-3 {
			t.Errorf("I_%v(%v, %v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestHDQuantile(t *testing.T) {
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := hdQuantile(xs, 0.5); math.Abs(got-500) > 1e-6 {
		t.Errorf("HD median of 0..1000 = %v, want 500", got)
	}
	if got := hdQuantile(xs, 0.99); math.Abs(got-990) > 1 {
		t.Errorf("HD p99 of 0..1000 = %v, want about 990", got)
	}
	xs[1000] = math.Inf(1)
	if got := hdQuantile(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("HD p99 with a failure in the tail = %v, want +Inf", got)
	}
}

func TestWorkloadsFitVerdictMasks(t *testing.T) {
	for _, w := range workloads {
		if w.openBatch < 1 || w.closedBatch < 1 || w.openBatch > maxBatch || w.closedBatch > maxBatch {
			t.Errorf("%s: batches %d/%d outside 1..%d", w.name, w.openBatch, w.closedBatch, maxBatch)
		}
	}
}
