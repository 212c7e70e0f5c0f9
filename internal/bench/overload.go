package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"herosign/internal/spx/params"
	"herosign/service"
)

// Overload measures service goodput under 2x admission-capacity load for
// both shed policies. A bounded single-shard service (queue limit
// queueLimit) on the suite device is hit with one open-loop burst of
// 2x its capacity; the table reports admitted/rejected/shed counts, the
// goodput of admitted requests and their latency tail. Like the lanes
// experiment, every number is wall-clock on the build machine.
func (s *Suite) Overload() (*Table, error) {
	const queueLimit = 16
	offered := 2 * queueLimit
	t := &Table{
		ID:    "overload",
		Title: fmt.Sprintf("Admission control under 2x capacity (limit %d, offered %d, wall-clock)", queueLimit, offered),
		Header: []string{"Policy", "Admitted", "Rejected", "Shed",
			"Goodput sig/s", "p50 ms", "p99 ms"},
		Notes: []string{
			"single shard on " + s.Dev.Name + "; one concurrent burst of 2x the admission cap",
			"rejected = ErrOverloaded at submit (HTTP 429); shed = coalescing requests evicted by drop-oldest-deadline",
		},
	}
	for _, policy := range []service.ShedPolicy{service.RejectNewest, service.DropOldestDeadline} {
		if err := s.overloadRow(t, policy, queueLimit, offered); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (s *Suite) overloadRow(t *Table, policy service.ShedPolicy, queueLimit, offered int) error {
	p := params.SPHINCSPlus128f
	svc, err := service.New(
		service.WithParams(p),
		service.WithKey(s.key(p)),
		service.WithDevices(s.Dev),
		service.WithQueueLimit(queueLimit),
		// The flush threshold sits above the queue limit so admitted
		// requests coalesce until the deadline — the window in which
		// drop-oldest-deadline has something to shed.
		service.WithMaxBatch(2*queueLimit),
		service.WithFlushDeadline(2*time.Millisecond),
		service.WithShedPolicy(policy),
	)
	if err != nil {
		return err
	}
	defer svc.Close()

	type outcome struct {
		admitted bool
		atSubmit bool // rejected before admission (the HTTP 429 path)
		latency  time.Duration
		err      error
	}
	outcomes := make([]outcome, offered)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < offered; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			futs, err := svc.Submit(context.Background(), service.Request{
				Kind: service.KindSign, Items: []service.Item{{Msg: []byte(fmt.Sprintf("overload-%d", i))}},
			})
			if err != nil {
				outcomes[i] = outcome{atSubmit: true, err: err}
				return
			}
			_, err = futs[0].Wait(context.Background())
			outcomes[i] = outcome{admitted: err == nil, latency: time.Since(t0), err: err}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	var admitted, rejected int
	var lat []time.Duration
	for _, o := range outcomes {
		switch {
		case o.admitted:
			admitted++
			lat = append(lat, o.latency)
		case errors.Is(o.err, service.ErrOverloaded):
			// Submit-time rejections are the Rejected column; an admitted
			// request later evicted by drop-oldest resolves ErrOverloaded
			// too but is counted only by the Shed column (from Stats).
			if o.atSubmit {
				rejected++
			}
		case o.err != nil:
			return o.err
		}
	}
	st := svc.Stats()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var p50, p99 float64
	if len(lat) > 0 {
		p50 = float64(lat[len(lat)/2].Microseconds()) / 1e3
		p99 = float64(lat[len(lat)*99/100].Microseconds()) / 1e3
	}
	goodput := float64(admitted) / wall.Seconds()
	t.Rows = append(t.Rows, []string{
		policy.String(), d0(int64(admitted)), d0(int64(rejected)), d0(st.ShedTotal),
		f1(goodput), f1(p50), f1(p99),
	})
	return nil
}
