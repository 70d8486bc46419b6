package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Run is the process shell cmd/kbserve and cmd/kbrouter share: it serves
// h on ln until ctx is cancelled or the process gets SIGINT/SIGTERM, then
// drains and returns nil. Draining first calls setDraining(true), which
// flips the handler's /readyz to 503: routers and load balancers polling
// readiness see "draining" and stop sending new work while the listener
// is still up, so no request races the closing socket, and the notice
// window gives those pollers one cycle to react. Only then does Shutdown
// stop accepting connections and wait up to drain for in-flight requests,
// so a rolling restart behind kbrouter never kills a query mid-flight.
func Run(ctx context.Context, ln net.Listener, h http.Handler, setDraining func(bool), notice, drain time.Duration) error {
	// A public serving endpoint needs connection-level timeouts: the
	// per-request query timeout only starts once a request is parsed, so
	// without these a client trickling headers or a body holds a
	// connection open indefinitely (slowloris).
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // from here a second signal kills the process the default way
	setDraining(true)
	log.Printf("signal received, draining for up to %v (notice %v)", drain, notice)
	if notice > 0 {
		time.Sleep(notice)
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Print("drained, exiting")
	return nil
}
