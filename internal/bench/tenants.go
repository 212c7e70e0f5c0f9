package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"herosign/internal/spx/params"
	"herosign/service"
)

// Tenants measures what per-tenant token buckets buy a well-behaved client
// under a noisy neighbor. One paced "quiet" tenant runs three times on the
// suite device: alone, against a closed-loop "hot" flood with no tenant
// rate limiting, and against the same flood with buckets on. The table
// reports the quiet tenant's goodput and latency tail per scenario plus how
// the flood was absorbed (served vs 429). Wall-clock on the build machine.
func (s *Suite) Tenants() (*Table, error) {
	const (
		quietN     = 20
		quietPace  = 2 * time.Millisecond
		hotWorkers = 4
		hotBatch   = 8
		rate       = 25.0
		burst      = 8
	)
	t := &Table{
		ID: "tenants",
		Title: fmt.Sprintf("Tenant isolation: paced tenant vs %d×%d-msg flood (bucket %.0f msg/s burst %d, wall-clock)",
			hotWorkers, hotBatch, rate, burst),
		Header: []string{"Scenario", "Quiet done", "Quiet sig/s", "Quiet p50 ms", "Quiet p99 ms",
			"Hot done", "Hot 429"},
		Notes: []string{
			"single shard on " + s.Dev.Name + "; quiet = " + fmt.Sprint(quietN) + " inline-waited signs paced " + quietPace.String() + " apart",
			fmt.Sprintf("hot = closed-loop %d-message batches for the quiet run's duration; 429 = token-bucket batch rejections (X-API-Key scope, all-or-nothing)", hotBatch),
		},
	}
	scenarios := []struct {
		name    string
		withHot bool
		rate    float64
	}{
		{"quiet solo", false, 0},
		{"flood, no buckets", true, 0},
		{"flood, buckets on", true, rate},
	}
	for _, sc := range scenarios {
		if err := s.tenantRow(t, sc.name, sc.withHot, sc.rate, burst, quietN, quietPace, hotWorkers, hotBatch); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (s *Suite) tenantRow(t *Table, name string, withHot bool, rate float64, burst, quietN int, pace time.Duration, hotWorkers, hotBatch int) error {
	p := params.SPHINCSPlus128f
	opts := []service.Option{
		service.WithParams(p),
		service.WithKey(s.key(p)),
		service.WithDevices(s.Dev),
		service.WithMaxBatch(32),
		service.WithFlushDeadline(2 * time.Millisecond),
		service.WithQueueLimit(256),
	}
	if rate > 0 {
		opts = append(opts, service.WithTenantRate(rate), service.WithTenantBurst(burst))
	}
	svc, err := service.New(opts...)
	if err != nil {
		return err
	}

	stop := make(chan struct{})
	var hotWG sync.WaitGroup
	var hotDone, hot429 atomic.Int64
	if withHot {
		for w := 0; w < hotWorkers; w++ {
			hotWG.Add(1)
			go func(w int) {
				defer hotWG.Done()
				hot := service.Request{Kind: service.KindSign, Items: make([]service.Item, hotBatch)}
				for i := range hot.Items {
					hot.Items[i] = service.Item{Msg: []byte(fmt.Sprintf("hot-%d-%d", w, i)), Tenant: "hot"}
				}
				for {
					select {
					case <-stop:
						return
					default:
					}
					futs, err := svc.Submit(context.Background(), hot)
					if err != nil {
						if errors.Is(err, service.ErrOverloaded) {
							hot429.Add(int64(hotBatch))
							time.Sleep(2 * time.Millisecond)
						}
						continue
					}
					for _, fut := range futs {
						if _, err := fut.Wait(context.Background()); err == nil {
							hotDone.Add(1)
						}
					}
				}
			}(w)
		}
	}

	lats := make([]time.Duration, 0, quietN)
	start := time.Now()
	for i := 0; i < quietN; i++ {
		t0 := time.Now()
		futs, err := svc.Submit(context.Background(), service.Request{
			Kind: service.KindSign, Items: []service.Item{{Msg: []byte(fmt.Sprintf("quiet-%d", i)), Tenant: "quiet"}},
		})
		if err != nil {
			continue // a shed quiet request still shows up as lost goodput
		}
		if _, err := futs[0].Wait(context.Background()); err == nil {
			lats = append(lats, time.Since(t0))
		}
		time.Sleep(pace)
	}
	wall := time.Since(start)

	close(stop)
	hotWG.Wait()
	if err := svc.Close(); err != nil {
		return err
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var p50, p99 float64
	if len(lats) > 0 {
		p50 = float64(lats[len(lats)/2].Microseconds()) / 1e3
		p99 = float64(lats[len(lats)*99/100].Microseconds()) / 1e3
	}
	t.Rows = append(t.Rows, []string{
		name, d0(int64(len(lats))), f1(float64(len(lats)) / wall.Seconds()),
		f1(p50), f1(p99), d0(hotDone.Load()), d0(hot429.Load()),
	})
	return nil
}
