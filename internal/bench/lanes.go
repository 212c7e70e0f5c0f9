package bench

import (
	"fmt"
	"time"

	"herosign/internal/cpuref"
	"herosign/internal/sha2"
	"herosign/internal/spx/address"
	"herosign/internal/spx/hashes"
	"herosign/internal/spx/params"
)

// sha2Backend names the sha2 compression backend currently dispatched:
// the native SHA extension kernels win over the stdlib hardware path, which
// wins over the portable kernels.
func sha2Backend() string {
	switch {
	case sha2.Native():
		return "native"
	case sha2.Accelerated():
		return "stdlib"
	}
	return "portable"
}

// timeOp returns the per-op wall time of f, self-calibrating the iteration
// count to roughly targetMs of measurement.
func timeOp(f func(), targetMs int) time.Duration {
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		elapsed := time.Since(start)
		if elapsed >= time.Duration(targetMs)*time.Millisecond || iters >= 1<<22 {
			return elapsed / time.Duration(iters)
		}
		iters *= 4
	}
}

// LaneEngine measures the host lane-engine wall-clock for SPHINCS+-128f:
// per-F cost and 8-lane batched per-F cost on each sha2 backend the host
// has (native, stdlib, portable, each selected explicitly), plus
// single-thread measured cpuref.SignBatch throughput. Unlike the modeled
// experiments, every number here is wall-clock on the build machine; this
// is the table a PR cites when it claims a host-side speedup.
func (s *Suite) LaneEngine() (*Table, error) {
	p := params.SPHINCSPlus128f
	t := &Table{
		ID:     "lanes",
		Title:  "Host multi-lane SHA-256 engine, SPHINCS+-128f (wall-clock)",
		Header: []string{"Backend", "F ns/op", "F x8 ns/lane", "SignBatch 1T KOPS"},
		Notes: []string{
			"default backend: " + sha2Backend() +
				"; each row names the backend actually dispatched; modeled GPU metrics are independent of the host backend",
		},
	}

	prevNative, prevAccel := sha2.Native(), sha2.Accelerated()
	defer func() {
		sha2.SetNative(prevNative)
		sha2.SetAccelerated(prevAccel)
	}()

	seed := make([]byte, p.N)
	ctx := hashes.NewCtx(p, seed, seed)
	var adrs [sha2.Lanes]address.Address
	var outs, ins [sha2.Lanes][]byte
	buf := make([]byte, sha2.Lanes*p.N)
	out := make([]byte, sha2.Lanes*p.N)
	for i := 0; i < sha2.Lanes; i++ {
		adrs[i].SetType(address.FORSTree)
		adrs[i].SetTreeIndex(uint32(i))
		ins[i] = buf[i*p.N : (i+1)*p.N]
		outs[i] = out[i*p.N : (i+1)*p.N]
	}
	msgs := make([][]byte, 8)
	for i := range msgs {
		msgs[i] = []byte{byte(i), 'l', 'n'}
	}

	type measured struct {
		name      string
		fNs, kops float64
	}
	var rows []measured
	for _, b := range []struct {
		name          string
		native, accel bool
	}{{"native", true, false}, {"stdlib", false, true}, {"portable", false, false}} {
		sha2.SetNative(b.native)
		sha2.SetAccelerated(b.accel)
		if sha2Backend() != b.name {
			t.Notes = append(t.Notes, b.name+": not available on this host")
			continue
		}
		fNs := timeOp(func() { ctx.F(outs[0], ins[0], &adrs[0]) }, 5)
		laneNs := timeOp(func() { ctx.FLanes(sha2.Lanes, &outs, &ins, &adrs) }, 5)
		_, res, err := cpuref.SignBatch(s.key(p), msgs, 1)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			sha2Backend(),
			d0(fNs.Nanoseconds()),
			d0(laneNs.Nanoseconds() / sha2.Lanes),
			fmt.Sprintf("%.4f", res.KOPS),
		})
		rows = append(rows, measured{b.name, float64(fNs.Nanoseconds()), res.KOPS})
	}
	// The portable kernels run everywhere, so they are always the last row.
	portable := rows[len(rows)-1]
	for _, m := range rows[:len(rows)-1] {
		if m.fNs > 0 && portable.kops > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("%s vs portable: F %.2fx, SignBatch 1T %.2fx",
				m.name, portable.fNs/m.fNs, m.kops/portable.kops))
		}
	}
	return t, nil
}
