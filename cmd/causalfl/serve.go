package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"

	"causalfl/internal/metrics"
	"causalfl/internal/serve"
)

// cmdServe runs the long-running localization service: the multi-tenant
// HTTP API from internal/serve (bounded ingest queues, crash-safe snapshots,
// restore-on-boot, batch localization against a tenant's model and the live
// dashboard). On SIGINT/SIGTERM the HTTP listener stops, every tenant
// flushes its queue and writes a final snapshot, and only then does the
// process exit — so the next boot resumes exactly where this one stopped.
func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	dir := fs.String("snapshot-dir", "causalfl-serve", "directory for crash-safe tenant snapshots")
	preset := fs.String("metrics", "", "default metric preset for new tenants (default "+metrics.SetRawAll+")")
	queue := fs.Int("queue", 0, fmt.Sprintf("default per-tenant ingest queue capacity in batches (default %d)", serve.DefaultQueueCap))
	snapEvery := fs.Int("snapshot-every", 0, fmt.Sprintf("default snapshot cadence in processed batches, negative disables periodic snapshots (default %d)", serve.DefaultSnapshotEvery))
	if err := fs.Parse(args); err != nil {
		return err
	}

	store, err := serve.NewStore(*dir)
	if err != nil {
		return err
	}
	api, err := serve.NewServer(serve.Options{Store: store, Defaults: serve.TenantConfig{
		Preset:        *preset,
		QueueCap:      *queue,
		SnapshotEvery: *snapEvery,
	}})
	if err != nil {
		return err
	}

	restored := len(api.Stats().Tenants)
	hs := &http.Server{Addr: *addr, Handler: api.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "serving on %s (snapshots in %s, %d tenant(s) restored)\n", *addr, store.Dir(), restored)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	// The signal context is spent; the drain deliberately runs unbounded so
	// final snapshots always land (a second Ctrl-C kills the process the
	// usual way). Shutdown first so no new ingest races the drain.
	fmt.Fprintln(os.Stderr, "shutting down: draining tenants and writing final snapshots...")
	if err := hs.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := api.Drain(context.Background()); err != nil {
		return err
	}
	st := api.Stats()
	fmt.Fprintf(os.Stderr, "drained %d tenant(s): %d batches processed, %d shed; snapshots in %s\n",
		len(st.Tenants), st.Processed, st.Shed, store.Dir())
	return nil
}
