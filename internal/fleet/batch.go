package fleet

import (
	"encoding/json"
	"net/http"

	"occamy/internal/service"
)

// handleBatch routes one multi-spec submission across the fleet: specs
// are parsed (service.ReadBatch, the worker's own reader) and
// fingerprinted router-side, grouped by home shard, and forwarded as
// one sub-batch per worker — so a 500-spec batch costs O(workers)
// upstream requests, not O(specs). The response items come back in
// request order with fleet-routable job IDs; a dead shard degrades to
// per-item 502s on its specs only.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	specs, items, status, err := service.ReadBatch(r)
	if err != nil {
		service.HTTPError(w, status, "%v", err)
		return
	}
	// A batch of n specs is n requests' worth of admission, charged
	// all-or-nothing up front.
	if !rt.admit(w, r, len(specs)) {
		return
	}
	rt.count(func(c *Counters) { c.BatchSpecs += int64(len(specs)) })

	// perShard groups the indices of the specs homed on each worker; the
	// batch-wide scale is already applied, because the fingerprint (and
	// so the home shard) is a function of the scaled spec.
	perShard := make(map[int][]int)
	shardSpecs := make(map[int][]json.RawMessage)
	for i, spec := range specs {
		if items[i].Code != 0 {
			continue
		}
		fp, err := spec.Fingerprint()
		if err != nil {
			items[i] = service.BatchItem{Error: err.Error(), Code: http.StatusInternalServerError}
			continue
		}
		scaled, err := json.Marshal(spec)
		if err != nil {
			items[i] = service.BatchItem{Error: err.Error(), Code: http.StatusInternalServerError}
			continue
		}
		shard := rt.ring.Lookup(fp)
		perShard[shard] = append(perShard[shard], i)
		shardSpecs[shard] = append(shardSpecs[shard], scaled)
	}

	// Each shard's sub-batch carries a ".w<shard>" child of the request
	// trace; the worker then stamps ".N" per item (its own batch handler
	// derives children), so every job ID in the fleet is grep-reachable
	// from the one client submission.
	trace := reqTrace(r)
	for shard, idxs := range perShard {
		sub, err := json.Marshal(service.BatchRequest{Specs: shardSpecs[shard]})
		if err != nil {
			fillShardError(items, idxs, err.Error(), http.StatusInternalServerError)
			continue
		}
		resp, err := rt.callWorker(r.Context(), shard, http.MethodPost, "/v1/batch", sub, service.ChildTrace(trace, "w", shard))
		if err != nil {
			fillShardError(items, idxs, err.Error(), http.StatusBadGateway)
			continue
		}
		var page struct {
			Runs []service.BatchItem `json:"runs"`
		}
		if resp.status != http.StatusAccepted || json.Unmarshal(resp.body, &page) != nil || len(page.Runs) != len(idxs) {
			fillShardError(items, idxs, "worker returned an unusable batch response", http.StatusBadGateway)
			continue
		}
		for k, item := range page.Runs {
			if item.Job != nil {
				item.Job.ID = routerID(shard, item.Job.ID)
			}
			items[idxs[k]] = item
		}
	}
	service.WriteJSON(w, http.StatusAccepted, map[string]any{"runs": items})
}

func fillShardError(items []service.BatchItem, idxs []int, msg string, code int) {
	for _, i := range idxs {
		items[i] = service.BatchItem{Error: msg, Code: code}
	}
}
