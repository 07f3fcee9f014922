package realswitch

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

// Tests of the pooled body-copy path: every ReverseProxy the switch
// builds shares bodyBufs, so a buffer returned by one request is the
// next request's copy buffer, possibly on another connection.

func TestBodyBufPoolWarmGetPutAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	bodyBufs.Put(bodyBufs.Get())
	allocs := testing.AllocsPerRun(1000, func() {
		buf := bodyBufs.Get()
		buf[0] = 1
		bodyBufs.Put(buf)
	})
	if allocs != 0 {
		t.Fatalf("warm Get+Put allocates %.1f times, want 0", allocs)
	}
}

func TestBodyBufPoolDropsWrongLength(t *testing.T) {
	if got := len(bodyBufs.Get()); got != copyBufSize {
		t.Fatalf("Get returned %d bytes, want %d", got, copyBufSize)
	}
	big := make([]byte, 2*copyBufSize)
	for _, buf := range [][]byte{nil, {}, make([]byte, 1), make([]byte, copyBufSize-1), big, make([]byte, copyBufSize-1, copyBufSize)} {
		bodyBufs.Put(buf) // must not panic
	}
	// Get after Put on the same P returns the item just put, so a
	// wrongly pooled slice would come straight back.
	got := bodyBufs.Get()
	if len(got) != copyBufSize || cap(got) != copyBufSize {
		t.Fatalf("Get returned len %d cap %d, want %d", len(got), cap(got), copyBufSize)
	}
	if &got[0] == &big[0] {
		t.Fatal("a slice of the wrong length was pooled")
	}
	bodyBufs.Put(got)
}

// patternBody is backend id's n-byte reply: a byte pattern that differs
// between backends at every offset, so a reply assembled from another
// request's buffer cannot pass for the right one.
func patternBody(id, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(id*71 + i*13 + i>>9)
	}
	return b
}

// patternBackend serves GET ?n=N with patternBody(id, N), declaring
// Content-Length unless ?chunked=1 (then flushed early and written in
// uneven pieces), and echoes POST bodies. X-Backend names the server.
func patternBackend(id, limit int) http.Handler {
	full := patternBody(id, limit)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Backend", strconv.Itoa(id))
		if r.Method == http.MethodPost {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Write(body)
			return
		}
		n, err := strconv.Atoi(r.URL.Query().Get("n"))
		if err != nil || n < 0 || n > limit {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		body := full[:n]
		if r.URL.Query().Get("chunked") == "" {
			w.Header().Set("Content-Length", strconv.Itoa(n))
			w.Write(body)
			return
		}
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		for len(body) > 0 {
			k := min(len(body), 7919)
			w.Write(body[:k])
			body = body[k:]
		}
	})
}

func TestPooledBodiesByteExactUnderConcurrency(t *testing.T) {
	const (
		nBackends = 4
		nClients  = 6
		rounds    = 2
		postSize  = 64 << 10
	)
	sizes := []int{0, 1, copyBufSize - 1, copyBufSize, copyBufSize + 1, 300 << 10}
	handlers := make([]http.Handler, nBackends)
	for i := range handlers {
		handlers[i] = patternBackend(i, sizes[len(sizes)-1])
	}
	p, front := proxyFront(t, handlers...)

	check := func(resp *http.Response, want func(id int) []byte, chunked bool, what string) error {
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("%s: read: %v", what, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", what, resp.StatusCode, got)
		}
		id, err := strconv.Atoi(resp.Header.Get("X-Backend"))
		if err != nil || id < 0 || id >= nBackends {
			return fmt.Errorf("%s: bad X-Backend %q", what, resp.Header.Get("X-Backend"))
		}
		w := want(id)
		if !bytes.Equal(got, w) {
			i := 0
			for i < len(got) && i < len(w) && got[i] == w[i] {
				i++
			}
			return fmt.Errorf("%s from backend %d: %d bytes, want %d; first difference at %d", what, id, len(got), len(w), i)
		}
		if len(w) > 0 {
			wantCL := int64(len(w))
			if chunked {
				wantCL = -1
			}
			if resp.ContentLength != wantCL {
				return fmt.Errorf("%s: Content-Length %d, want %d", what, resp.ContentLength, wantCL)
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			for r := 0; r < rounds; r++ {
				for k, n := range sizes {
					for _, chunked := range []bool{false, true} {
						url := fmt.Sprintf("%s/?n=%d", front.URL, n)
						if chunked {
							url += "&chunked=1"
						}
						resp, err := client.Get(url)
						if err == nil {
							err = check(resp, func(id int) []byte { return patternBody(id, n) }, chunked, url)
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
					if k%3 != 0 {
						continue
					}
					// An interleaved upload: the echo must come back
					// exactly as this client sent it.
					up := make([]byte, postSize)
					for i := range up {
						up[i] = byte(c*29 + r*7 + k*5 + i*3)
					}
					resp, err := client.Post(front.URL, "application/octet-stream", bytes.NewReader(up))
					if err == nil {
						err = check(resp, func(int) []byte { return up }, false, "POST")
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if p.Dropped() != 0 || p.Retried() != 0 {
		t.Fatalf("dropped=%d retried=%d, want 0", p.Dropped(), p.Retried())
	}
}

// TestProxyAllocBytesPerRoundTrip gates the bytes allocated per warm
// serial round trip through the switch (client, switch and backend in
// one process, as BenchmarkProxySerial counts them). Without the pooled
// copy buffer each request allocates 32 KiB for it alone.
func TestProxyAllocBytesPerRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	const (
		n     = 200
		bound = 24 << 10
	)
	p, front := benchFixture(t, 4)
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	roundTrip := func() {
		resp, err := client.Get(front.URL)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	for i := 0; i < 50; i++ {
		roundTrip() // warm connections, route table and pools
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	perReq := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d B allocated per round trip", perReq)
	if perReq > bound {
		t.Fatalf("%d B allocated per round trip, want <= %d", perReq, bound)
	}
	if p.Routed() != 50+n {
		t.Fatalf("routed %d, want %d", p.Routed(), 50+n)
	}
}
