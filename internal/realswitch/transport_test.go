package realswitch

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/svcswitch"
)

func TestTransportDialsBackendsDirectly(t *testing.T) {
	cfg := svcswitch.NewConfigFile("direct")
	for name, p := range map[string]*Proxy{
		"default": New(cfg),
		"zero":    NewWithTransport(cfg, TransportConfig{}),
	} {
		tr := p.Transport()
		if tr.Proxy != nil {
			t.Errorf("%s: backend transport consults an outbound proxy; backends must be dialled directly", name)
		}
		if !tr.DisableCompression {
			t.Errorf("%s: backend transport negotiates compression itself", name)
		}
	}
}

// TestSwitchForwardsEncodingsUnchanged: the switch neither adds an
// Accept-Encoding the client did not send nor inflates a compressed
// reply; the encoded bytes and their Content-Length reach the client
// as the backend sent them.
func TestSwitchForwardsEncodingsUnchanged(t *testing.T) {
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	io.WriteString(zw, strings.Repeat("soda service switch ", 200))
	zw.Close()

	var mu sync.Mutex
	var seen []string
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, strings.Join(r.Header.Values("Accept-Encoding"), ","))
		mu.Unlock()
		// Always gzip, asked or not: the switch must not undo it.
		w.Header().Set("Content-Encoding", "gzip")
		w.Header().Set("Content-Length", strconv.Itoa(zipped.Len()))
		w.Write(zipped.Bytes())
	})
	_, front := proxyFront(t, backend)
	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	for _, ae := range []string{"", "gzip"} {
		req, err := http.NewRequest(http.MethodGet, front.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ae != "" {
			req.Header.Set("Accept-Encoding", ae)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		got := seen[len(seen)-1]
		mu.Unlock()
		if got != ae {
			t.Errorf("client sent Accept-Encoding %q, backend received %q", ae, got)
		}
		if !bytes.Equal(body, zipped.Bytes()) {
			t.Errorf("Accept-Encoding %q: reply body is %d bytes, not the backend's %d gzip bytes", ae, len(body), zipped.Len())
		}
		if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
			t.Errorf("Accept-Encoding %q: Content-Encoding %q, want gzip", ae, ce)
		}
		if resp.ContentLength != int64(zipped.Len()) {
			t.Errorf("Accept-Encoding %q: Content-Length %d, want %d", ae, resp.ContentLength, zipped.Len())
		}
	}
}
