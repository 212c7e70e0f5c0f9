// Command herosign-serve runs the HERO-Sign signing service: an HTTP/JSON
// front end over the request coalescer, the shard router and its pluggable
// backend pools.
//
// Usage:
//
//	herosign-serve [-addr :8080] [-params 128f] [-gpus "RTX 4090,RTX 4090"]
//	               [-cpuref 0] [-memo-mb 0] [-memo-warm]
//	               [-shards 1] [-queue-limit 0] [-global-queue-limit 0]
//	               [-shed reject-newest] [-tenant-rate 0] [-tenant-burst 0]
//	               [-drain 10s]
//	               [-max-batch 64] [-deadline 2ms] [-key hexfile]
//	               [-remote "http://leaf1:8080,http://leaf2:8080"]
//	               [-replica-of http://peer:8080]
//	               [-fleet-secret s|@file] [-fleet-tls-cert f] [-fleet-tls-key f]
//	               [-fleet-tls-ca f] [-fleet-dynamic]
//	               [-join http://front:8080] [-advertise http://me:8081]
//	               [-chaos "mode=latency;path=/v1/sign;latency=50ms"]
//
// The -gpus list creates one simulated-GPU backend per entry; repeating a
// device adds a second worker that shares its cached, tuned signer.
// -cpuref N adds a real-CPU lane-engine backend with N worker goroutines,
// so one service mixes modeled-GPU and real-CPU execution. -memo-mb M
// gives each cpuref backend a per-key hypertree memoization cache of M MiB
// (upper XMSS subtrees pinned, lower ones LRU); with -memo-warm (the
// default) the pinned layers are prebuilt during startup warm-up, so the
// first request already signs from cache. Cache hit/miss/residency
// counters appear under "memo" in /v1/stats. -shards splits
// the fleet into that many key domains (each signing under its own derived
// key; see GET /v1/keys). -queue-limit / -global-queue-limit bound
// admission (0 = unbounded, -1 = auto from backend capacities); overload
// returns 429 with Retry-After, shedding per -shed. -tenant-rate R gives
// each API key (the X-API-Key header; absent = the default tenant) its own
// token bucket of R messages/s with burst -tenant-burst, so one hot tenant
// is rate-limited before it can starve a shard; per-tenant counters appear
// under "tenants" in /v1/stats whether or not rate limiting is on. Clients
// may also send X-Request-Deadline (relative milliseconds, or deadline_ms
// in the body): work that cannot meet its deadline is pre-rejected with
// 429, an expired deadline returns 504, and pending batches flush
// earliest-deadline-first. Without -key a fresh key pair is generated and
// the public key printed on startup.
//
// -remote turns this instance into a fleet-of-fleets front end: each URL
// becomes a proxy backend that forwards batches to another herosign-serve
// over HTTP, with health-probed weights, outlier ejection and failover to
// a sibling leaf on connection errors, 5xx and 429. Leaves must be started
// with this front end's -key (and shard count) so the derived key domains
// line up; startup fails otherwise. A remote-only front end (-gpus ""
// -cpuref 0 -remote ...) does no local signing at all.
//
// -replica-of asserts this server is interchangeable with a peer: it
// fetches the peer's /v1/keys and refuses to start unless the catalogs
// match, catching replicas launched with the wrong key file before a front
// end fails requests over between them.
//
// -fleet-secret arms fleet authentication: every front↔leaf request (proxy
// calls, health probes, key-domain verification, membership traffic)
// carries an HMAC header with a replay-window nonce; requests without a
// valid header are rejected 401 and counted under auth_rejected in
// /v1/stats. A value starting with @ is read from that file. On a leaf
// (-join, or a standalone server) the secret protects all of /v1/*; on a
// front end /v1/* stays public for clients and only /v1/fleet/* (and the
// front's outgoing requests) use the secret. -fleet-tls-cert/-key serve
// HTTPS and double as the client certificate when dialing leaves;
// -fleet-tls-ca pins the peer CA (on a server it also demands client
// certificates — mutual TLS).
//
// -fleet-dynamic turns the front end into a membership registrar: leaves
// join with POST /v1/fleet/join, heartbeat a lease, and leave with DELETE
// /v1/fleet/leave, appearing in and disappearing from the routing set
// without a restart. A leaf started with -join announces itself to that
// front end (advertising -advertise, default http://127.0.0.1<addr>) and
// sends its leave on SIGTERM before the drain begins. Membership and
// health transitions surface as fleet_events in the front's /v1/stats.
//
// -chaos arms development fault injection on this server's own handler
// (latency, resets, error bursts — see internal/faultinject for the rule
// grammar). Never set it in production.
//
// On SIGINT or SIGTERM the server stops accepting requests and drains
// in-flight batches up to the -drain deadline before exiting.
//
// Endpoints: POST /v1/sign, /v1/sign/batch, /v1/verify, /v1/verify/batch,
// /v1/keygen and GET /v1/keys, /v1/stats.
package main

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"herosign"
	"herosign/internal/faultinject"
	"herosign/service"
	"herosign/service/remote"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	paramsName := flag.String("params", "128f", "SPHINCS+ parameter set")
	gpus := flag.String("gpus", "RTX 4090", "comma-separated simulated devices, one backend each (empty for none)")
	cpuref := flag.Int("cpuref", 0, "real-CPU lane-engine backend with N goroutines (0 = none, -1 = GOMAXPROCS)")
	memoMB := flag.Int("memo-mb", 0, "per-key hypertree memoization cache budget in MiB for cpuref backends (0 = off)")
	memoWarm := flag.Bool("memo-warm", true, "prebuild the memo cache's pinned layers during startup warm-up")
	shards := flag.Int("shards", 1, "key domains; backends distribute round-robin")
	queueLimit := flag.Int("queue-limit", 0, "per-shard admission cap (0 = unbounded, -1 = auto)")
	globalLimit := flag.Int("global-queue-limit", 0, "service-wide admission cap (0 = unbounded, -1 = auto)")
	shed := flag.String("shed", "reject-newest", "overload policy: reject-newest or drop-oldest-deadline")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant admission rate in messages/s, keyed by X-API-Key (0 = no per-tenant rate limiting)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant token-bucket burst (0 = one second of -tenant-rate, floored at 8)")
	drain := flag.Duration("drain", 10*time.Second, "shutdown drain deadline (0 = wait for a full drain)")
	maxBatch := flag.Int("max-batch", 0, "size-triggered flush threshold (0 = engine SubBatch)")
	deadline := flag.Duration("deadline", 2*time.Millisecond, "coalescing flush deadline")
	keyFile := flag.String("key", "", "hex-encoded private key file (default: generate)")
	remotes := flag.String("remote", "", "comma-separated leaf herosign-serve URLs to proxy as backends")
	replicaOf := flag.String("replica-of", "", "peer URL whose /v1/keys catalog this server must match")
	fleetSecret := flag.String("fleet-secret", "", "shared fleet-auth secret (@file reads it from a file)")
	fleetTLSCert := flag.String("fleet-tls-cert", "", "TLS certificate file: served by this server, presented as client cert to leaves")
	fleetTLSKey := flag.String("fleet-tls-key", "", "TLS key file for -fleet-tls-cert")
	fleetTLSCA := flag.String("fleet-tls-ca", "", "CA file pinning fleet peers (server side: require client certs)")
	fleetDynamic := flag.Bool("fleet-dynamic", false, "accept dynamic fleet membership: leaves join/leave via /v1/fleet/*")
	joinURL := flag.String("join", "", "front-end URL to join as a dynamic-membership leaf")
	advertise := flag.String("advertise", "", "advertised base URL for -join (default http://127.0.0.1<addr>)")
	chaos := flag.String("chaos", "", "development fault-injection rules for this server's handler (see internal/faultinject)")
	flag.Parse()

	p, err := herosign.ParamsByName(*paramsName)
	if err != nil {
		fatal(err)
	}
	if *gpus == "" && *cpuref == 0 && *remotes == "" && !*fleetDynamic {
		fatal(fmt.Errorf("no backends configured: set -gpus, -cpuref, -remote and/or -fleet-dynamic"))
	}
	policy, err := service.ShedPolicyByName(*shed)
	if err != nil {
		fatal(err)
	}
	secret, err := loadFleetSecret(*fleetSecret)
	if err != nil {
		fatal(err)
	}
	tlsCfg, err := fleetClientTLS(*fleetTLSCert, *fleetTLSKey, *fleetTLSCA)
	if err != nil {
		fatal(err)
	}
	// Auth posture: a leaf (it joins a fleet, or serves standalone with a
	// secret) authenticates all of /v1/*; a front end keeps /v1/* public
	// for clients — only /v1/fleet/* and its outgoing requests are authed.
	isFront := *fleetDynamic || *remotes != ""

	opts := []herosign.ServiceOption{
		service.WithParams(p),
		service.WithFlushDeadline(*deadline),
		service.WithShards(*shards),
		service.WithQueueLimit(*queueLimit),
		service.WithGlobalQueueLimit(*globalLimit),
		service.WithShedPolicy(policy),
		service.WithDrainDeadline(*drain),
	}
	if *tenantRate > 0 {
		opts = append(opts, service.WithTenantRate(*tenantRate))
		if *tenantBurst > 0 {
			opts = append(opts, service.WithTenantBurst(*tenantBurst))
		}
	}
	if *maxBatch > 0 {
		opts = append(opts, service.WithMaxBatch(*maxBatch))
	}
	if secret != "" && (*joinURL != "" || !isFront) {
		opts = append(opts, service.WithFleetSecret(secret))
	}
	if *fleetDynamic {
		opts = append(opts, service.WithDynamicMembership())
	}

	var devs []*herosign.GPU
	if *gpus != "" {
		for _, name := range strings.Split(*gpus, ",") {
			d, err := herosign.GPUByName(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			devs = append(devs, d)
		}
		opts = append(opts, service.WithDevices(devs...))
	}
	if *cpuref != 0 {
		if *memoMB > 0 {
			opts = append(opts, service.WithBackends(
				herosign.NewCPURefBackendMemo(*cpuref, int64(*memoMB)<<20, *memoWarm)))
		} else {
			opts = append(opts, service.WithBackends(herosign.NewCPURefBackend(*cpuref)))
		}
	}
	fleetOpts := remote.Options{Secret: secret, TLSConfig: tlsCfg}
	if *remotes != "" {
		if *keyFile == "" {
			fatal(fmt.Errorf("-remote requires -key: the leaves must be started with the same key file so the derived key domains line up"))
		}
		fleet, err := remote.NewFleet(strings.Split(*remotes, ","), fleetOpts)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, service.WithBackends(fleet.Backends()...))
	}
	var dynFleet *remote.Fleet
	if *fleetDynamic {
		if *keyFile == "" {
			fatal(fmt.Errorf("-fleet-dynamic requires -key: joining leaves must be started with the same key file so the derived key domains line up"))
		}
		dynFleet, err = remote.NewDynamicFleet(fleetOpts)
		if err != nil {
			fatal(err)
		}
	}

	if *keyFile != "" {
		raw, err := os.ReadFile(*keyFile)
		if err != nil {
			fatal(err)
		}
		b, err := hex.DecodeString(strings.TrimSpace(string(raw)))
		if err != nil {
			fatal(fmt.Errorf("decode %s: %w", *keyFile, err))
		}
		sk, err := herosign.ParsePrivateKey(p, b)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, service.WithKey(sk))
	}

	svc, err := herosign.NewService(opts...)
	if err != nil {
		fatal(err)
	}

	if *replicaOf != "" {
		if err := checkReplicaOf(*replicaOf, svc); err != nil {
			fatal(err)
		}
		fmt.Printf("replica check: key catalog matches %s\n", *replicaOf)
	}

	fmt.Printf("herosign-serve: params=%s addr=%s shards=%d shed=%s queue-limit=%d/%d tenant-rate=%g\n",
		p.Name, *addr, *shards, policy, *queueLimit, *globalLimit, *tenantRate)
	for _, sh := range svc.Shards() {
		fmt.Printf("shard %d key=%s backends=%s pk=%s\n",
			sh.ID, sh.KeyID, strings.Join(sh.Backends, ","),
			base64.StdEncoding.EncodeToString(sh.PublicKey.Bytes()))
	}

	var handler http.Handler = svc.Handler()
	var registrar *remote.Registrar
	if dynFleet != nil {
		registrar = remote.NewRegistrar(svc, dynFleet, remote.RegistrarOptions{})
		mux := http.NewServeMux()
		mux.Handle("/v1/fleet/", registrar.Handler())
		mux.Handle("/", handler)
		handler = mux
		fmt.Println("fleet membership: dynamic (join via POST /v1/fleet/join)")
	}
	if *chaos != "" {
		rules, err := faultinject.ParseRules(*chaos)
		if err != nil {
			fatal(err)
		}
		inj := faultinject.New()
		for _, r := range rules {
			inj.Arm(r)
		}
		handler = inj.Middleware(handler)
		fmt.Printf("chaos: %d fault rule(s) armed — do not run this in production\n", len(rules))
	}

	var announcer *remote.Announcer
	if *joinURL != "" {
		adv := *advertise
		if adv == "" {
			if !strings.HasPrefix(*addr, ":") {
				fatal(fmt.Errorf("-join needs -advertise when -addr is not a bare :port"))
			}
			adv = "http://127.0.0.1" + *addr
		}
		client := &http.Client{}
		if tlsCfg != nil {
			client.Transport = &http.Transport{TLSClientConfig: tlsCfg}
		}
		announcer, err = remote.NewAnnouncer(remote.AnnouncerOptions{
			FrontURL: *joinURL,
			SelfURL:  adv,
			Secret:   secret,
			Client:   client,
			Logf: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			},
		})
		if err != nil {
			fatal(err)
		}
	}

	srv := newServer(*addr, handler)
	if *fleetTLSCA != "" && *fleetTLSCert != "" {
		pool, err := fleetCAPool(*fleetTLSCA)
		if err != nil {
			fatal(err)
		}
		srv.TLSConfig = &tls.Config{ClientCAs: pool, ClientAuth: tls.RequireAndVerifyClientCert}
	}
	go func() {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		<-ctx.Done()
		// Leave the fleet BEFORE draining: the front end stops routing new
		// work to this leaf first, so the drain deadline is spent finishing
		// accepted batches instead of racing fresh arrivals.
		if announcer != nil {
			leaveCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := announcer.Leave(leaveCtx); err != nil {
				fmt.Println("fleet leave:", err)
			} else {
				fmt.Println("left fleet; draining")
			}
			cancel()
		}
		fmt.Println("shutting down: draining coalescers and backend pools")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()
	if announcer != nil {
		announcer.Start()
	}
	serveErr := error(nil)
	if *fleetTLSCert != "" && *fleetTLSKey != "" {
		serveErr = srv.ListenAndServeTLS(*fleetTLSCert, *fleetTLSKey)
	} else {
		serveErr = srv.ListenAndServe()
	}
	if serveErr != nil && serveErr != http.ErrServerClosed {
		fatal(serveErr)
	}
	_ = svc.Close()
	if registrar != nil {
		_ = registrar.Close()
	}
	fmt.Println("drained; bye")
}

// Connection limits against slow or idle clients (slowloris). There is no
// write timeout: a sign legitimately waits behind admission and coalescing
// for longer than any fixed write budget.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second // whole request; bodies are capped at service.MaxBodyBytes
	// idleTimeout outlives the fleet proxy transport's 90 s idle timeout, so
	// a front end retires an idle connection before its leaf closes it.
	idleTimeout    = 2 * time.Minute
	maxHeaderBytes = 64 << 10
)

// newServer builds the HTTP server for handler with the connection limits.
func newServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// loadFleetSecret resolves -fleet-secret: empty, a literal, or @file.
func loadFleetSecret(v string) (string, error) {
	if !strings.HasPrefix(v, "@") {
		return v, nil
	}
	raw, err := os.ReadFile(strings.TrimPrefix(v, "@"))
	if err != nil {
		return "", fmt.Errorf("read fleet secret: %w", err)
	}
	s := strings.TrimSpace(string(raw))
	if s == "" {
		return "", fmt.Errorf("fleet secret file %s is empty", strings.TrimPrefix(v, "@"))
	}
	return s, nil
}

// fleetClientTLS builds the dial-side TLS config: the CA pins fleet peers
// and the cert/key pair doubles as this server's client certificate.
func fleetClientTLS(cert, key, ca string) (*tls.Config, error) {
	if cert == "" && key == "" && ca == "" {
		return nil, nil
	}
	cfg := &tls.Config{}
	if ca != "" {
		pool, err := fleetCAPool(ca)
		if err != nil {
			return nil, err
		}
		cfg.RootCAs = pool
	}
	if cert != "" && key != "" {
		pair, err := tls.LoadX509KeyPair(cert, key)
		if err != nil {
			return nil, fmt.Errorf("load fleet TLS keypair: %w", err)
		}
		cfg.Certificates = []tls.Certificate{pair}
	}
	return cfg, nil
}

func fleetCAPool(path string) (*x509.CertPool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read fleet CA: %w", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(raw) {
		return nil, fmt.Errorf("fleet CA %s contains no certificates", path)
	}
	return pool, nil
}

// checkReplicaOf compares this server's key catalog to a peer's: same
// parameter set, and every local shard key present in the peer with a
// byte-identical public key. Two servers passing the check against each
// other are safe failover targets for the same key domains.
func checkReplicaOf(peer string, svc *herosign.Service) error {
	peer = strings.TrimRight(strings.TrimSpace(peer), "/")
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(peer + "/v1/keys")
	if err != nil {
		return fmt.Errorf("replica check: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica check: %s/v1/keys returned %d", peer, resp.StatusCode)
	}
	var catalog struct {
		Params string `json:"params"`
		Keys   []struct {
			KeyID     string `json:"key_id"`
			PublicKey []byte `json:"public_key"`
		} `json:"keys"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&catalog); err != nil {
		return fmt.Errorf("replica check: decode %s/v1/keys: %w", peer, err)
	}
	byID := make(map[string][]byte, len(catalog.Keys))
	for _, k := range catalog.Keys {
		byID[k.KeyID] = k.PublicKey
	}
	for _, sh := range svc.Shards() {
		if sh.PublicKey.Params.Name != catalog.Params {
			return fmt.Errorf("replica check: peer %s serves %s, this server %s",
				peer, catalog.Params, sh.PublicKey.Params.Name)
		}
		pub, ok := byID[sh.KeyID]
		if !ok {
			return fmt.Errorf("replica check: peer %s does not serve key domain %s — were both started from the same -key file and -shards count?",
				peer, sh.KeyID)
		}
		if !bytes.Equal(pub, sh.PublicKey.Bytes()) {
			return fmt.Errorf("replica check: peer %s key %s has a different public key", peer, sh.KeyID)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "herosign-serve:", err)
	os.Exit(1)
}
