package wmxml

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestServeHandlerRoundTrip drives the public serving API end to end:
// register an owner, embed a generated document, detect it through the
// registry with no query set in the request.
func TestServeHandlerRoundTrip(t *testing.T) {
	reg := NewMemoryRegistry()
	h, err := NewServerHandler(ServerOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	post := func(path string, body []byte) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		// The owner's key is the API credential on owner-scoped calls.
		req.Header.Set("Authorization", "Bearer k1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 1<<16)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp, sb.String()
	}

	if resp, body := post("/v1/owners", []byte(`{"id":"pub","key":"k1","mark":"(C) P","dataset":"pubs","gamma":3}`)); resp.StatusCode != 200 {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	ds := PublicationsDataset(120, 9)
	orig := SerializeXMLString(ds.Doc)
	resp, marked := post("/v1/embed?owner=pub", []byte(orig))
	if resp.StatusCode != 200 {
		t.Fatalf("embed: %d %s", resp.StatusCode, marked)
	}
	resp, verdict := post("/v1/detect?owner=pub", []byte(marked))
	if resp.StatusCode != 200 || !strings.Contains(verdict, `"detected": true`) {
		t.Fatalf("detect: %d %s", resp.StatusCode, verdict)
	}

	// The registry is shared state: the owner and receipt are visible
	// through the public registry aliases too.
	owner, err := reg.GetOwner("pub")
	if err != nil || owner.Mark != "(C) P" {
		t.Fatalf("GetOwner: %+v, %v", owner, err)
	}
	recs, err := reg.ListReceipts("pub")
	if err != nil || len(recs) != 1 || len(recs[0].Records) == 0 {
		t.Fatalf("ListReceipts: %+v, %v", recs, err)
	}
}

// TestServeDrainReadiness: cancelling Serve's context flips /readyz to
// 503 "draining" for the DrainDelay window before the listener closes,
// so load balancers stop routing new work ahead of the hard shutdown.
func TestServeDrainReadiness(t *testing.T) {
	// Reserve a port so the test can dial the server by address.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, ServerOptions{
			Addr:       addr,
			DrainDelay: 2 * time.Second,
			LogWriter:  io.Discard,
		})
	}()
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code, _ := get("/readyz"); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	var sawDraining bool
	for time.Now().Before(deadline) {
		code, body := get("/readyz")
		if code == 0 {
			break // listener closed: the drain window ended
		}
		if code == http.StatusServiceUnavailable && strings.Contains(body, "draining") {
			sawDraining = true
			// Liveness must hold while readiness is down.
			if hcode, _ := get("/healthz"); hcode != http.StatusOK {
				t.Fatalf("/healthz during drain: %d", hcode)
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawDraining {
		t.Fatal("never observed /readyz 503 draining during the drain window")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not exit after the drain window")
	}
}

// TestServeGracefulShutdown: Serve exits nil when its context is
// cancelled.
func TestServeGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, ServerOptions{Addr: "127.0.0.1:0"})
	}()
	// Let the listener come up, then stop it.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after cancel", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not exit after cancel")
	}
}

// TestServeBindError: a service or debug address that is already taken
// makes Serve return the bind error at once.
func TestServeBindError(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	taken := busy.Addr().String()
	for _, opts := range []ServerOptions{
		{Addr: taken},
		{Addr: "127.0.0.1:0", DebugAddr: taken},
	} {
		opts.LogWriter = io.Discard
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		err := Serve(ctx, opts)
		cancel()
		if !errors.Is(err, syscall.EADDRINUSE) {
			t.Errorf("Serve(Addr %q, DebugAddr %q) = %v, want a bind error", opts.Addr, opts.DebugAddr, err)
		}
	}
}

// TestNewServerHandlerStartsNoGoroutine: without CaptureDir a handler
// runs nothing in the background (runtime health is read on scrape), so
// building handlers leaves no goroutine behind.
func TestNewServerHandlerStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		if _, err := NewServerHandler(ServerOptions{LogWriter: io.Discard}); err != nil {
			t.Fatal(err)
		}
	}
	// Goroutines of earlier tests may still be winding down; wait for
	// the count to settle rather than reading it once.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before 10 NewServerHandler calls, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
