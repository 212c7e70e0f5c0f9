package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"herosign/internal/gpu/device"
	"herosign/internal/spx/params"
	"herosign/service"
	"herosign/service/remote"
)

// The settings herosign-serve starts with unless told otherwise.
const (
	flushDeadline = 2 * time.Millisecond
	drainDeadline = 10 * time.Second
	leafMemoBytes = 8 << 20
)

// server is one loopback HTTP listener.
type server struct {
	srv  *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down and waits for Serve to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// deployment is one workload's service stack behind a loopback listener.
type deployment struct {
	svc   *service.Service // the client-facing service
	leaf  *service.Service // sign-fleet only
	front *server
	back  *server // the leaf's listener, sign-fleet only
	url   string
	setup time.Duration
}

// close drains the front end first, then its leaf.
func (d *deployment) close() error {
	var errs []error
	if d.front != nil {
		errs = append(errs, d.front.stop())
	}
	if d.svc != nil {
		errs = append(errs, d.svc.Close())
	}
	if d.back != nil {
		errs = append(errs, d.back.stop())
	}
	if d.leaf != nil {
		errs = append(errs, d.leaf.Close())
	}
	return errors.Join(errs...)
}

// serviceOptions are herosign-serve's defaults: 128f, one shard, 2 ms
// flush deadline, unbounded queues, reject-newest, 10 s drain.
func serviceOptions(key *service.PrivateKey, backends ...service.Backend) []service.Option {
	return []service.Option{
		service.WithParams(params.SPHINCSPlus128f),
		service.WithKey(key),
		service.WithBackends(backends...),
		service.WithFlushDeadline(flushDeadline),
		service.WithShards(1),
		service.WithQueueLimit(0),
		service.WithGlobalQueueLimit(0),
		service.WithShedPolicy(service.RejectNewest),
		service.WithDrainDeadline(drainDeadline),
	}
}

// deploy starts w's service stack for key and times it from the first
// constructor call until the client-facing listener answers a request.
// With a tracer, every backend and handler is wrapped.
func deploy(w *workload, key *service.PrivateKey, tr *tracer) (*deployment, error) {
	wrapB := func(role string, b service.Backend) service.Backend {
		if tr == nil {
			return b
		}
		return tr.wrap(role, b)
	}
	wrapH := func(role string, h http.Handler) http.Handler {
		if tr == nil {
			return h
		}
		return tr.middleware(role, h)
	}

	d := &deployment{}
	var fleet *remote.Fleet // sign-fleet: closed by svc.Close once svc exists
	start := time.Now()
	var svcBackends []service.Backend
	switch w.backend {
	case backendDevice:
		dev, err := device.ByName("RTX 4090")
		if err != nil {
			return nil, err
		}
		svcBackends = []service.Backend{wrapB(roleSvc, service.NewDeviceBackend(dev))}
	case backendCPURef:
		svcBackends = []service.Backend{wrapB(roleSvc, service.NewCPURefBackend(runtime.GOMAXPROCS(0)))}
	case backendRemote:
		leafBackend := wrapB(roleLeaf, service.NewCPURefBackendMemo(runtime.GOMAXPROCS(0), leafMemoBytes, true))
		leaf, err := service.New(serviceOptions(key, leafBackend)...)
		if err != nil {
			return nil, fmt.Errorf("leaf: %w", err)
		}
		d.leaf = leaf
		if d.back, err = listen(wrapH(roleLeaf, leaf.Handler())); err != nil {
			d.close()
			return nil, err
		}
		opts := remote.Options{}
		if tr != nil {
			opts.WrapTransport = tr.roundTripper
		}
		if fleet, err = remote.NewFleet([]string{d.back.url}, opts); err != nil {
			d.close()
			return nil, err
		}
		for _, b := range fleet.Backends() {
			svcBackends = append(svcBackends, wrapB(roleSvc, b))
		}
	}
	svc, err := service.New(serviceOptions(key, svcBackends...)...)
	if err != nil {
		if fleet != nil {
			fleet.Close()
		}
		d.close()
		return nil, err
	}
	d.svc = svc
	if d.front, err = listen(wrapH(roleSvc, svc.Handler())); err != nil {
		d.close()
		return nil, err
	}
	d.url = d.front.url
	resp, err := http.Get(d.url + "/v1/keys")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /v1/keys: %s", resp.Status)
		}
	}
	if err != nil {
		d.close()
		return nil, fmt.Errorf("first request: %w", err)
	}
	d.setup = time.Since(start)
	http.DefaultClient.CloseIdleConnections()
	return d, nil
}
