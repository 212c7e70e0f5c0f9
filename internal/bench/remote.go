package bench

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"herosign/internal/spx/params"
	"herosign/service"
	"herosign/service/remote"
)

// RemoteFleet measures the distributed fleet-of-fleets path (package
// service/remote): a front end whose backends proxy sign batches over HTTP
// to two in-process leaf servers with plain failover. Scenarios cover 1x
// and 2x client concurrency and a degraded leaf that hiccups — a large
// injected latency on a minority of its sign batches, the
// GC-pause/contention-spike shape. A hiccup is slow, not an error, so it
// neither fails over nor ejects: the degraded row is the tail such a
// replica costs. Every number is wall-clock on the build machine.
func (s *Suite) RemoteFleet() (*Table, error) {
	const (
		baseWorkers = 4
		warmFor     = 2 * time.Second
		runFor      = 6 * time.Second
		hiccupMs    = 500
		hiccupEvery = 12
	)
	t := &Table{
		ID:    "remote",
		Title: "Remote fleet-of-fleets: goodput and tail vs load, degraded leaf (wall-clock)",
		Header: []string{"Scenario", "OK", "429", "Goodput sig/s",
			"p50 ms", "p99 ms"},
		Notes: []string{
			fmt.Sprintf("two leaf servers on %s behind HTTP; front end proxies via service/remote", s.Dev.Name),
			fmt.Sprintf("degraded = one leaf hiccups +%dms on every %dth sign batch", hiccupMs, hiccupEvery),
			"failover reroutes errors only: a batch caught in a hiccup rides it out in full",
		},
	}

	p := params.SPHINCSPlus128f
	key := s.key(p)

	// Two persistent leaves; scenario code flips the injected hiccup.
	type leafProc struct {
		svc     *service.Service
		srv     *httptest.Server
		delayMs atomic.Int64
		batches atomic.Int64
	}
	leaves := make([]*leafProc, 2)
	for i := range leaves {
		svc, err := service.New(
			service.WithParams(p),
			service.WithKey(key),
			service.WithDevices(s.Dev),
			service.WithQueueLimit(service.AutoQueueLimit),
		)
		if err != nil {
			return nil, err
		}
		lp := &leafProc{svc: svc}
		h := svc.Handler()
		lp.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sign/batch" {
				if d := lp.delayMs.Load(); d > 0 && lp.batches.Add(1)%hiccupEvery == 0 {
					time.Sleep(time.Duration(d) * time.Millisecond)
				}
			}
			h.ServeHTTP(w, r)
		}))
		leaves[i] = lp
		defer lp.srv.Close()
		defer lp.svc.Close()
	}
	urls := []string{leaves[0].srv.URL, leaves[1].srv.URL}

	scenarios := []struct {
		name    string
		workers int
		degrade bool
	}{
		{"1x load", baseWorkers, false},
		{"2x load", 2 * baseWorkers, false},
		{"1x, leaf degraded", baseWorkers, true},
	}
	for _, sc := range scenarios {
		if sc.degrade {
			leaves[0].delayMs.Store(hiccupMs)
		} else {
			leaves[0].delayMs.Store(0)
		}

		fleet, err := remote.NewFleet(urls, remote.Options{
			ProbeInterval: 200 * time.Millisecond,
			// Keep the degraded leaf in rotation: the z-score rule needs
			// three leaves anyway, and the row measures what the hiccups
			// cost the tail, not how fast the leaf is ejected.
			LatencyZLimit: -1,
		})
		if err != nil {
			return nil, err
		}
		front, err := service.New(
			service.WithParams(p),
			service.WithKey(key),
			service.WithBackends(fleet.Backends()...),
			service.WithQueueLimit(service.AutoQueueLimit),
		)
		if err != nil {
			return nil, err
		}

		var (
			mu        sync.Mutex
			lats      []time.Duration
			overloads int64
		)
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		var seq atomic.Int64
		// Warm the coalescer and the leaf signers before the measured window
		// opens.
		warmed := make(chan struct{})
		time.AfterFunc(warmFor, func() { close(warmed) })
		for w := 0; w < sc.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					msg := fmt.Sprintf("remote-bench-%d", seq.Add(1))
					t0 := time.Now()
					futs, err := front.Submit(ctx, service.Request{
						Kind: service.KindSign, Items: []service.Item{{Msg: []byte(msg)}},
					})
					if err == nil {
						_, err = futs[0].Wait(ctx)
					}
					switch {
					case ctx.Err() != nil:
						return
					case err == nil:
						select {
						case <-warmed:
							mu.Lock()
							lats = append(lats, time.Since(t0))
							mu.Unlock()
						default:
						}
					case service.IsOverloaded(err):
						atomic.AddInt64(&overloads, 1)
						time.Sleep(service.RetryAfter(err))
					default:
						// Hard errors abort the experiment below.
						mu.Lock()
						lats = nil
						mu.Unlock()
						cancel()
						return
					}
				}
			}()
		}
		<-warmed
		windowStart := time.Now()
		time.Sleep(runFor)
		cancel()
		wg.Wait()
		wall := time.Since(windowStart)

		if len(lats) == 0 {
			front.Close()
			return nil, fmt.Errorf("bench remote: scenario %q produced no successful signs", sc.name)
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p50 := float64(lats[len(lats)/2].Microseconds()) / 1e3
		p99 := float64(lats[len(lats)*99/100].Microseconds()) / 1e3
		front.Close()

		t.Rows = append(t.Rows, []string{
			sc.name, d0(int64(len(lats))), d0(atomic.LoadInt64(&overloads)),
			f1(float64(len(lats)) / wall.Seconds()), f1(p50), f1(p99),
		})
	}
	return t, nil
}
