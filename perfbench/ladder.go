package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"herosign/internal/core"
	"herosign/internal/cpuref"
	"herosign/internal/gpu/device"
	"herosign/internal/sha2"
	"herosign/internal/spx"
	"herosign/internal/spx/address"
	"herosign/internal/spx/hashes"
	"herosign/internal/spx/params"
	"herosign/service"
)

// rungTime is how long each timed ladder rung runs.
const rungTime = 600 * time.Millisecond

// ladder calls the layers below the HTTP front end directly, on the
// workload's key and inputs, after the service phases have ended. The
// difference between adjacent rungs is the cost of the layer between them.
// Every run reports every rung metric; rungs off the workload's path read 0.
func ladder(res *result, w *workload, seed uint64, key *spx.PrivateKey, pool *verifyPool, batch int) error {
	for name, unit := range ladderUnits {
		res.set(name, 0, unit)
	}
	lm := &ladderMsgs{seed: seed}

	// The hash rungs toggle sha2's process-wide backend switch, which must
	// not race with hashing: every service of the run is closed by now.
	hashRungs(res, key)

	switch w.backend {
	case backendDevice:
		dev, err := coreRung(res, key, lm, batch)
		if err != nil {
			return err
		}
		return serviceRungs(res, key, batch, w.closedBatch, func() service.Backend { return service.NewDeviceBackend(dev) }, lm, nil)

	case backendCPURef:
		v := spx.NewVerifier(&key.PublicKey)
		msgs, sigs := poolBatch(pool, w.closedBatch)
		ok := make([]bool, len(msgs))
		per, err := timeRepeated(func() (int, error) {
			v.VerifyBatch(ok, msgs, sigs)
			return len(msgs), nil
		})
		if err != nil {
			return err
		}
		res.set("spx.verify_us", float64(per)/float64(time.Microsecond), "us")
		bmsgs, bsigs := poolBatch(pool, batch)
		bv := cpuref.NewBatchVerifier(&key.PublicKey)
		rates := [2]float64{}
		for i, threads := range []int{1, runtime.GOMAXPROCS(0)} {
			per, err := timeRepeated(func() (int, error) {
				_, _, err := bv.VerifyBatch(bmsgs, bsigs, threads)
				return len(bmsgs), err
			})
			if err != nil {
				return err
			}
			rates[i] = 1 / per.Seconds()
		}
		res.set("cpuref.verify_per_s", rates[1], "1/s")
		res.set("cpuref.scaling", rates[1]/(float64(runtime.GOMAXPROCS(0))*rates[0]), "ratio")
		return serviceRungs(res, key, batch, w.closedBatch, func() service.Backend { return service.NewCPURefBackend(runtime.GOMAXPROCS(0)) }, lm, pool)

	case backendRemote:
		// No workload in BENCHMARK.json serves the simulated-GPU executor,
		// so it signs the same key here, at the batch sign-default's closed
		// loop coalesces: one request per connection.
		sd, err := workloadByName("sign-default")
		if err != nil {
			return err
		}
		if _, err := coreRung(res, key, lm, runtime.GOMAXPROCS(0)*sd.closedBatch); err != nil {
			return err
		}
		cache := spx.NewTreeCache(key, leafMemoBytes)
		cache.Warm(runtime.GOMAXPROCS(0))
		signer, err := spx.NewSignerWithCache(key, cache)
		if err != nil {
			return err
		}
		per, err := timeRepeated(func() (int, error) {
			_, err := signer.Sign(lm.next(1)[0], nil)
			return 1, err
		})
		if err != nil {
			return err
		}
		res.set("spx.sign_ms", ms(per), "ms")
		rates := [2]float64{}
		for i, threads := range []int{1, runtime.GOMAXPROCS(0)} {
			per, err := timeRepeated(func() (int, error) {
				_, _, err := cpuref.SignBatchCached(key, lm.next(batch), threads, cache)
				return batch, err
			})
			if err != nil {
				return err
			}
			rates[i] = 1 / per.Seconds()
		}
		res.set("cpuref.sign_per_s", rates[1], "1/s")
		res.set("cpuref.scaling", rates[1]/(float64(runtime.GOMAXPROCS(0))*rates[0]), "ratio")
		// The leaf's backend and service: the rungs below the proxy hop.
		return serviceRungs(res, key, batch, w.closedBatch, func() service.Backend {
			return service.NewCPURefBackendMemo(runtime.GOMAXPROCS(0), leafMemoBytes, true)
		}, lm, nil)
	}
	return nil
}

// coreRung times internal/core's simulated RTX 4090 signer on batches of
// batch messages and returns the device.
func coreRung(res *result, key *spx.PrivateKey, lm *ladderMsgs, batch int) (*device.Device, error) {
	dev, err := device.ByName("RTX 4090")
	if err != nil {
		return nil, err
	}
	s, err := core.New(core.Config{Params: key.Params, Device: dev, Features: core.AllFeatures()})
	if err != nil {
		return nil, err
	}
	if _, err := s.Selection(key); err != nil {
		return nil, err
	}
	var modeled float64
	per, err := timeRepeated(func() (int, error) {
		r, err := s.SignBatch(key, lm.next(batch))
		if err == nil {
			modeled = r.TotalUs
		}
		return batch, err
	})
	if err != nil {
		return nil, fmt.Errorf("core rung: %w", err)
	}
	res.set("core.sign_ms", ms(per), "ms")
	res.set("core.modeled_us", modeled, "us")
	res.set("core.batch", float64(batch), "count")
	return dev, nil
}

// ladderUnits are the workload-specific rung metrics, zero until a rung
// on the workload's path sets them.
var ladderUnits = map[string]string{
	"core.sign_ms": "ms", "core.modeled_us": "us", "core.batch": "count",
	"spx.sign_ms": "ms", "spx.verify_us": "us",
	"cpuref.sign_per_s": "1/s", "cpuref.verify_per_s": "1/s", "cpuref.scaling": "ratio",
}

// ladderMsgs hands out fresh messages from the ladder's own stream.
type ladderMsgs struct {
	mu   sync.Mutex
	seed uint64
	i    uint64
}

func (l *ladderMsgs) next(n int) [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([][]byte, n)
	for j := range out {
		out[j] = message(l.seed, streamLadder, l.i)
		l.i++
	}
	return out
}

// poolBatch is the workload's first n verify pairs, forgeries included.
func poolBatch(pool *verifyPool, n int) (msgs, sigs [][]byte) {
	msgs, sigs = make([][]byte, n), make([][]byte, n)
	for j := range msgs {
		msgs[j], sigs[j], _ = pool.pair(streamLadder, uint64(j/16), j%16, 16)
	}
	return msgs, sigs
}

// timeRepeated calls fn until rungTime has passed (at least twice) and
// returns the median time per operation over the calls.
func timeRepeated(fn func() (ops int, err error)) (time.Duration, error) {
	var per []float64
	start := time.Now()
	for len(per) < 2 || time.Since(start) < rungTime {
		t0 := time.Now()
		n, err := fn()
		if err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return time.Duration(median(per)), nil
}

// serviceRungs measures the backend with no service around it (RunBatch
// from one goroutine, as a pool runs it) and the service with no HTTP
// around it (one closed-loop submitter per CPU, closedBatch operations per
// call).
func serviceRungs(res *result, key *spx.PrivateKey, batch, closedBatch int, newBackend func() service.Backend, lm *ladderMsgs, pool *verifyPool) error {
	job := func(n int) *service.Job {
		if pool != nil {
			msgs, sigs := poolBatch(pool, n)
			return &service.Job{Kind: service.KindVerify, Msgs: msgs, Sigs: sigs}
		}
		return &service.Job{Kind: service.KindSign, Msgs: lm.next(n)}
	}
	b := newBackend()
	if err := b.Warm(key); err != nil {
		return err
	}
	per, err := timeRepeated(func() (int, error) {
		_, err := b.RunBatch(context.Background(), key, job(batch))
		return batch, err
	})
	if err != nil {
		return fmt.Errorf("backend rung: %w", err)
	}
	res.set("backend.direct_per_s", 1/per.Seconds(), "1/s")

	svc, err := service.New(serviceOptions(key, newBackend())...)
	if err != nil {
		return err
	}
	var (
		wg   sync.WaitGroup
		ops  = make([]int, runtime.GOMAXPROCS(0))
		errs = make([]error, len(ops))
	)
	start := time.Now()
	for g := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < 2*rungTime {
				j := job(closedBatch)
				var futs []*service.Future
				var err error
				if j.Kind == service.KindVerify {
					futs, err = svc.SubmitVerifyBatchKey("", j.Msgs, j.Sigs)
				} else {
					futs, err = svc.SubmitSignBatch("", j.Msgs)
				}
				for _, f := range futs {
					if err == nil {
						_, err = f.Wait(context.Background())
					}
				}
				if err != nil {
					errs[g] = err
					return
				}
				ops[g] += closedBatch
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := svc.Close(); err != nil {
		return err
	}
	total := 0
	for g, n := range ops {
		if errs[g] != nil {
			return fmt.Errorf("service rung: %w", errs[g])
		}
		total += n
	}
	res.set("service.direct_per_s", float64(total)/elapsed.Seconds(), "1/s")
	return nil
}

// hashRungs times thash F under the default backend and one SHA-256
// compression under each sha2 backend, selected explicitly and restored
// afterwards.
func hashRungs(res *result, key *spx.PrivateKey) {
	p := params.SPHINCSPlus128f
	ctx := hashes.NewCtx(p, key.Seed, key.SKSeed)
	var adrs address.Address
	buf := make([]byte, p.N)
	res.set("hashes.f_ns", nsPerOp(func() { ctx.F(buf, buf, &adrs) }), "ns")

	prevNative, prevAccel := sha2.Native(), sha2.Accelerated()
	defer func() {
		sha2.SetNative(prevNative)
		sha2.SetAccelerated(prevAccel)
	}()
	var (
		h     sha2.Hasher256
		mid   = sha2.State256{1, 2, 3, 4, 5, 6, 7, 8}
		block [55]byte // one padded block: a single compression
		out   [16]byte
	)
	for _, b := range []struct {
		name          string
		native, accel bool
	}{{"native", true, false}, {"stdlib", false, true}, {"portable", false, false}} {
		sha2.SetNative(b.native)
		sha2.SetAccelerated(b.accel)
		res.set("sha2.compress_ns."+b.name, nsPerOp(func() {
			h.Restart(&mid, sha2.BlockSize256)
			h.Write(block[:])
			h.SumTrunc(out[:])
		}), "ns")
	}
}

// nsPerOp times fn in rounds of 4096 calls for about 100 ms and returns
// the median ns per call over the rounds.
func nsPerOp(fn func()) float64 {
	const round = 4096
	var per []float64
	start := time.Now()
	for len(per) < 3 || time.Since(start) < 100*time.Millisecond {
		t0 := time.Now()
		for i := 0; i < round; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/round)
	}
	return median(per)
}
