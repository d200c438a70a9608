// Command gkserved serves persisted gkmeans indexes (.gkx files written by
// gkmeans.SaveIndex or `gkmeans -index`) over HTTP: approximate
// nearest-neighbour search — with concurrent single-query requests
// micro-batched through SearchBatch — graph-supported clustering, index
// listing/registration, per-endpoint metrics and health checking. Sharded
// indexes (gkmeans.WithShards / `gkmeans -shards`) load and serve
// transparently: searches fan out across the shards, /v1/indexes reports
// the shard count, and only the clustering endpoint is refused for them.
//
// Served indexes are mutable: /insert appends vectors and /delete
// tombstones rows. With -data DIR, every accepted write is fsynced to a
// per-index write-ahead log (DIR/<name>.wal) before the response and
// replayed on the next start, so acknowledged mutations survive a crash;
// the background compactor (-compact-interval) folds tombstoned and
// fragmented shards back into dense ones and checkpoints the index to
// DIR/<name>.gkx. Without -data, mutations are accepted but volatile.
//
// For heavy traffic the daemon hardens the read path with -timeout (every
// search/cluster request is answered 504 once its deadline expires;
// clients can tighten it per request), -max-inflight (excess concurrent
// searches are shed with 429 + Retry-After instead of queueing) and
// -cache (an epoch-invalidated per-index LRU of single-query results —
// hits are bit-identical to cold searches and mutations invalidate them
// via the index epoch). Prometheus metrics are exported at /metrics; see
// OPERATIONS.md for the full runbook.
//
//	gkserved -listen :8080 -data /var/lib/gkserved \
//	    -timeout 2s -max-inflight 256 -cache 65536 \
//	    -index sift=sift.gkx -index glove=glove.gkx
//
//	curl localhost:8080/healthz
//	curl localhost:8080/v1/indexes
//	curl -d '{"query":[...],"top_k":10}' localhost:8080/v1/indexes/sift/search
//	curl -d '{"vectors":[[...]]}' localhost:8080/v1/indexes/sift/insert
//	curl -d '{"ids":[17,42]}' localhost:8080/v1/indexes/sift/delete
//	curl -d '{"name":"new","path":"new.gkx"}' localhost:8080/v1/indexes
//	curl localhost:8080/metrics
//
// On SIGINT/SIGTERM the daemon drains: the health check flips to 503, open
// micro-batches are flushed, in-flight requests finish (up to -drain), and
// only then does the process exit. Buffered (unflushed) inserts are left in
// the WAL and replayed on the next start.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gkmeans/internal/server"
	"gkmeans/internal/store"
)

// indexFlags collects repeated -index name=path.gkx arguments.
type indexFlags []struct{ name, path string }

func (f *indexFlags) String() string { return fmt.Sprintf("%d indexes", len(*f)) }

func (f *indexFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path.gkx, got %q", v)
	}
	*f = append(*f, struct{ name, path string }{name, path})
	return nil
}

func main() {
	var indexes indexFlags
	var (
		listen   = flag.String("listen", ":8080", "address to serve on")
		window   = flag.Duration("window", server.DefaultWindow, "micro-batch collection window, paid only by searches that arrive while another is in flight; a lone search never waits (0 disables batching)")
		maxBatch = flag.Int("max-batch", server.DefaultMaxBatch, "max single queries coalesced into one SearchBatch; a full batch starts at once")
		drain    = flag.Duration("drain", 15*time.Second, "shutdown grace period for in-flight requests")
		dataDir  = flag.String("data", "", "directory for write-ahead logs and checkpoints (empty: mutations are volatile)")
		memtable = flag.Int("memtable", server.DefaultMemtableThreshold, "buffered inserts that trigger a shard build")
		compact  = flag.Duration("compact-interval", time.Minute, "background compaction period (0 disables)")
		tombs    = flag.Float64("compact-tomb-ratio", store.DefaultPolicy.TombRatio, "deleted/rows ratio that queues a shard for compaction")
		frags    = flag.Int("compact-fragments", store.DefaultPolicy.MaxFragments, "shard count above which the smallest shards are merged")
		timeout  = flag.Duration("timeout", 0, "server-wide search/cluster deadline, answered with 504 when exceeded (0 disables)")
		inflight = flag.Int("max-inflight", 0, "concurrent search/cluster requests admitted before shedding 429s (0 disables)")
		retryAft = flag.Duration("retry-after", server.DefaultRetryAfter, "Retry-After hint attached to shed (429) responses")
		cache    = flag.Int("cache", 0, "per-index query-cache capacity in entries, epoch-invalidated (0 disables)")
	)
	flag.Var(&indexes, "index", "serve a persisted index as name=path.gkx (repeatable)")
	flag.Parse()

	cfg := server.Config{
		Window:            *window,
		MaxBatch:          *maxBatch,
		DataDir:           *dataDir,
		MemtableThreshold: *memtable,
		Policy:            store.Policy{TombRatio: *tombs, MaxFragments: *frags},
		CompactInterval:   *compact,
		RequestTimeout:    *timeout,
		MaxInFlight:       *inflight,
		RetryAfter:        *retryAft,
		CacheSize:         *cache,
	}
	logger := log.New(os.Stderr, "gkserved: ", log.LstdFlags)
	if err := run(logger, *listen, cfg, *drain, indexes); err != nil {
		logger.Fatal(err)
	}
}

func run(logger *log.Logger, listen string, cfg server.Config,
	drain time.Duration, indexes indexFlags) error {

	if cfg.Window <= 0 {
		cfg.Window = -1 // "-window 0" means no batching, not the server default
	}
	cfg.Logger = logger
	srv := server.New(cfg)
	for _, ix := range indexes {
		if err := srv.RegisterFile(ix.name, ix.path); err != nil {
			return err
		}
	}
	if len(indexes) == 0 {
		logger.Printf("no -index given; starting empty (register via POST /v1/indexes)")
	}

	hs := &http.Server{Addr: listen, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", listen)
		errc <- hs.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-ctx.Done():
	}

	logger.Printf("signal received, draining for up to %s", drain)
	srv.BeginShutdown()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Printf("drained, exiting")
	return nil
}
