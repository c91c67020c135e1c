package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"

	"cnfetdk/internal/fabric"
	"cnfetdk/internal/flow"
	"cnfetdk/internal/pipeline"
	"cnfetdk/internal/service"
)

// fleet is an in-process fabric: cnfetd workers (service.NewServer on
// httptest listeners) sharing one store directory, enrolled with a
// coordinator.
type fleet struct {
	coord   *fabric.Coordinator
	servers []*httptest.Server
}

// newFleet builds the workers and joins them, recording flow.New and
// Coordinator.Join spans.
func (p *pass) newFleet(ctx context.Context, storeDir, req string) (*fleet, error) {
	f := &fleet{coord: fabric.New(fabric.Options{LeasePoints: p.w.leasePoints})}
	for i := 0; i < p.w.fleetWorkers; i++ {
		kit, err := p.newKit(ctx, req, flow.WithStore(storeDir), flow.WithCacheLimit(p.w.memCap))
		if err != nil {
			f.close()
			return nil, err
		}
		srv := httptest.NewServer(service.NewServer(kit))
		f.servers = append(f.servers, srv)
		sp := p.rec.begin(0, req, "Coordinator.Join")
		_, err = f.coord.Join(srv.URL, true)
		sp.end(err)
		if err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// close stops every worker server and waits for its handlers.
func (f *fleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
}

// cacheStats sums GET /v1/cache over the workers.
func (f *fleet) cacheStats(ctx context.Context) (pipeline.StoreStats, error) {
	var sum pipeline.StoreStats
	sum.Disk = &pipeline.TierStats{}
	for _, s := range f.servers {
		var st pipeline.StoreStats
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.URL+"/v1/cache", nil)
		if err != nil {
			return sum, err
		}
		resp, err := s.Client().Do(req)
		if err != nil {
			return sum, fmt.Errorf("GET /v1/cache: %w", err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return sum, fmt.Errorf("GET /v1/cache: %w", err)
		}
		addTier(&sum.Mem, st.Mem)
		if st.Disk != nil {
			addTier(sum.Disk, *st.Disk)
		}
	}
	return sum, nil
}

func addTier(dst *pipeline.TierStats, t pipeline.TierStats) {
	dst.Entries += t.Entries
	dst.Bytes += t.Bytes
	dst.Hits += t.Hits
	dst.Misses += t.Misses
	dst.Puts += t.Puts
	dst.Evictions += t.Evictions
	dst.Errors += t.Errors
}

// postJob is one POST /v1/jobs round trip: it returns once the whole
// response body has been read.
func postJob(ctx context.Context, client *http.Client, base string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
