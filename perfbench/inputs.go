package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"herosign/internal/cpuref"
	"herosign/internal/spx"
	"herosign/internal/spx/params"
)

// Input streams. Each phase draws its messages from its own stream so the
// warm-up, the open loop and the closed loop never share a message.
const (
	streamWarm uint64 = iota + 1
	streamOpen
	streamClosed
	streamPool
	streamLadder
)

// derive returns 32 bytes determined by (seed, label, a, b) alone.
func derive(seed uint64, label string, a, b uint64) [32]byte {
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], seed)
	binary.LittleEndian.PutUint64(buf[8:], a)
	binary.LittleEndian.PutUint64(buf[16:], b)
	h := sha256.New()
	h.Write([]byte("perfbench/" + label))
	h.Write(buf[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// message is the i-th 32-byte message of a stream.
func message(seed, stream, i uint64) []byte {
	m := derive(seed, "msg", stream, i)
	return m[:]
}

// masterKey is the service master key for a seed. Every deployment of the
// seed (front end, leaf, the ladder's direct calls) signs under it.
func masterKey(seed uint64) (*spx.PrivateKey, error) {
	p := params.SPHINCSPlus128f
	sk := derive(seed, "sk-seed", 0, 0)
	prf := derive(seed, "sk-prf", 0, 0)
	pk := derive(seed, "pk-seed", 0, 0)
	return spx.KeyFromSeeds(p, sk[:p.N], prf[:p.N], pk[:p.N])
}

// poissonSchedule returns the send offsets of one open-loop round: a
// Poisson process at rate per second over span, conditioned on its count
// being rate*span. Given the count, Poisson arrival times are independent
// and uniform over the span, so the schedule is that many seeded uniform
// offsets, sorted. Every seed offers the same load; the seed and round
// decide where the bursts fall, and the same seed repeats them exactly.
func poissonSchedule(seed, round uint64, rate float64, span time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x6f70656e6c6f6f70+round))
	out := make([]time.Duration, int(math.Round(rate*span.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Int64N(int64(span)))
	}
	slices.Sort(out)
	return out
}

// forgeEvery is the share of verify pairs the benchmark forges: one in
// forgeEvery, chosen per (request, slot) from the seed.
const forgeEvery = 8

// verifyPool is the set of genuine (message, signature) pairs verify
// requests draw from. Request r takes entries r*batch ... r*batch+batch-1
// (mod the pool size), so the pairs of requests in flight together are
// distinct as long as fewer than len(msgs)/batch requests overlap.
type verifyPool struct {
	seed uint64
	msgs [][]byte
	sigs [][]byte
}

// newVerifyPool signs n pool messages under sk with every CPU and checks
// each signature before any request uses it.
func newVerifyPool(seed uint64, sk *spx.PrivateKey, n int) (*verifyPool, error) {
	msgs := make([][]byte, n)
	for i := range msgs {
		msgs[i] = message(seed, streamPool, uint64(i))
	}
	cache := spx.NewTreeCache(sk, 8<<20)
	cache.Warm(runtime.GOMAXPROCS(0))
	sigs, _, err := cpuref.SignBatchCached(sk, msgs, 0, cache)
	if err != nil {
		return nil, fmt.Errorf("sign verify pool: %w", err)
	}
	ok, _, err := cpuref.VerifyBatchScalar(&sk.PublicKey, msgs, sigs, 0)
	if err != nil {
		return nil, fmt.Errorf("check verify pool: %w", err)
	}
	for i, v := range ok {
		if !v {
			return nil, fmt.Errorf("verify pool entry %d does not verify", i)
		}
	}
	return &verifyPool{seed: seed, msgs: msgs, sigs: sigs}, nil
}

// pair returns the slot-th pair of request (stream, r): the message, the
// signature to send and whether it was forged. A forged signature has one
// byte flipped at a seeded position.
func (vp *verifyPool) pair(stream, r uint64, slot, batch int) (msg, sig []byte, forged bool) {
	idx := (r*uint64(batch) + uint64(slot)) % uint64(len(vp.msgs))
	d := derive(vp.seed, "forge", stream<<32|uint64(slot), r)
	msg, sig = vp.msgs[idx], vp.sigs[idx]
	if binary.LittleEndian.Uint64(d[:8])%forgeEvery != 0 {
		return msg, sig, false
	}
	f := append([]byte(nil), sig...)
	pos := binary.LittleEndian.Uint64(d[8:16]) % uint64(len(f))
	f[pos] ^= 1 << (d[16] % 8)
	return msg, f, true
}
