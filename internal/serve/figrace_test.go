package serve

import (
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"slurmsight/internal/core"
)

// TestExtFiguresConcurrentFirstRequest fires the first requests for
// both timeline-backed figures at once, on several fresh generations.
// The two figures share one bundle, so its lazily swept timeline must
// be ready before the bundle is published; otherwise the chart builders
// race on the sweep and one of them renders an empty series (HTTP 500).
func TestExtFiguresConcurrentFirstRequest(t *testing.T) {
	s, ts := testServer(t, Config{System: "testsys"})
	keys := core.ExtendedFigureKeys()
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	for round := 0; round < 20; round++ {
		if round > 0 { // a fresh generation: nothing cached yet
			if err := s.store.Add(testRecord(500+round, base.Add(time.Duration(round)*time.Hour))); err != nil {
				t.Fatal(err)
			}
		}
		start := make(chan struct{})
		codes := make([]int, 4*len(keys))
		var wg sync.WaitGroup
		for i := range codes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				resp, err := http.Get(ts.URL + "/figures/" + keys[i%len(keys)] + ".json")
				if err != nil {
					return // codes[i] stays 0
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				codes[i] = resp.StatusCode
			}()
		}
		close(start)
		wg.Wait()
		for i, code := range codes {
			if code != http.StatusOK {
				t.Fatalf("round %d: %s answered %d", round, keys[i%len(keys)], code)
			}
		}
	}
}
