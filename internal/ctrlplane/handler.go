package ctrlplane

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// NewHandler serves the /ctrl/* endpoints of grantee id over its
// CtrlEndpoint (an *Agent, or psd's daemon adapter). The handler is
// self-contained so it can be mounted beside a daemon's existing API or
// served alone by the replay harness.
func NewHandler(id int, ep CtrlEndpoint) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathAssign, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		body, err := readBody(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req, err := DecodeAssign(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.Server != id {
			http.Error(w, fmt.Sprintf("assign for server %d reached agent %d", req.Server, id), http.StatusBadRequest)
			return
		}
		resp, err := ep.Assign(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeWireJSON(w, resp)
	})
	mux.HandleFunc(PathReport, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		// A scrape may carry the coordinator's clock; the agent uses it
		// to notice a lapsed lease even without a local ticker.
		var t float64
		hasT := false
		if ts := r.URL.Query().Get("t"); ts != "" {
			var err error
			t, err = strconv.ParseFloat(ts, 64)
			if err != nil || !finite(t) || t < 0 {
				http.Error(w, fmt.Sprintf("bad t %q", ts), http.StatusBadRequest)
				return
			}
			hasT = true
		}
		rep, err := ep.Scrape(t, hasT)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeWireJSON(w, rep)
	})
	mux.HandleFunc(PathLease, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		body, err := readBody(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req, err := DecodeLease(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.Server != id {
			http.Error(w, fmt.Sprintf("lease for server %d reached agent %d", req.Server, id), http.StatusBadRequest)
			return
		}
		resp, err := ep.Renew(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeWireJSON(w, resp)
	})
	return mux
}

// LeaderStatus is the GET /ctrl/leader payload: which candidate this
// coordinator believes leads, under which epoch, and whether it is that
// candidate itself.
type LeaderStatus struct {
	V         int    `json:"v"`
	ID        string `json:"id"`
	LeaderID  string `json:"leaderId"`
	Epoch     uint64 `json:"epoch"`
	Leader    bool   `json:"leader"`
	Failovers int    `json:"failovers"`
}

// coordStatus builds the leadership view both transports serve: which
// candidate this coordinator believes leads, under which epoch, and
// whether it is that candidate itself. ha may be nil for a plain
// single coordinator — it then reports itself leader of its own epoch
// with no election behind it.
func coordStatus(c *Coordinator, ha *HA) LeaderStatus {
	st := LeaderStatus{V: ProtocolV, Epoch: c.Epoch(), Leader: true}
	if ha != nil {
		term, lead := ha.Leader()
		st.ID = ha.ID()
		st.LeaderID = term.Leader
		st.Epoch = term.Epoch
		st.Leader = lead
		st.Failovers = ha.Failovers()
	}
	return st
}

// NewCoordinatorHandler serves a coordinator's /ctrl/* endpoints:
// agent registration, the leadership probe, and — when voter is
// non-nil — this pool member's /ctrl/vote quorum endpoint. ha may be
// nil (see coordStatus).
func NewCoordinatorHandler(c *Coordinator, ha *HA, voter *QuorumVoter) http.Handler {
	status := func() LeaderStatus { return coordStatus(c, ha) }
	mux := http.NewServeMux()
	mux.HandleFunc(PathRegister, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		body, err := readBody(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req, err := DecodeRegister(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := c.Register(req)
		st := status()
		resp.Leader = st.Leader
		resp.LeaderID = st.LeaderID
		writeWireJSON(w, resp)
	})
	mux.HandleFunc(PathLeader, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		writeWireJSON(w, status())
	})
	if voter != nil {
		mux.Handle(PathVote, NewVoterHandler(voter))
	}
	return mux
}

// writeWireJSON writes a control-plane message.
func writeWireJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
