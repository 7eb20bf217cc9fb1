// Package httpapi exposes the VNI Endpoint over HTTP with Metacontroller's
// wire format: POST /sync and POST /finalize carry the observed parent and
// its children, and receive the desired child list back. This is the
// deployable form of the endpoint (cmd/vnisvc); the in-simulation cluster
// wires the same hook logic directly (internal/vnisvc).
package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/metactl"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
	"github.com/caps-sim/shs-k8s/internal/vnidb"
	"github.com/caps-sim/shs-k8s/internal/vnisvc"
)

// wallClock adapts wall time to the sim.Clock the endpoint expects.
type wallClock struct{ start time.Time }

func (c wallClock) Now() sim.Time { return sim.Time(time.Since(c.start)) }

// ParentRef is the wire form of the watched parent object.
type ParentRef struct {
	Kind        string            `json:"kind"`
	Namespace   string            `json:"namespace"`
	Name        string            `json:"name"`
	UID         string            `json:"uid"`
	Annotations map[string]string `json:"annotations,omitempty"`
	Spec        map[string]string `json:"spec,omitempty"`
	Deleting    bool              `json:"deleting,omitempty"`
}

// ChildRef is the wire form of a VNI CRD child.
type ChildRef struct {
	Name string            `json:"name"`
	Spec map[string]string `json:"spec"`
}

// SyncRequest is the webhook request body.
type SyncRequest struct {
	Parent   ParentRef  `json:"parent"`
	Children []ChildRef `json:"children,omitempty"`
}

// SyncResponse is the /sync response body.
type SyncResponse struct {
	Children []ChildRef `json:"children"`
}

// FinalizeResponse is the /finalize response body.
type FinalizeResponse struct {
	Finalized bool       `json:"finalized"`
	Children  []ChildRef `json:"children"`
}

// Server is the HTTP VNI endpoint. net/http serves requests concurrently,
// and the endpoint takes one hook call at a time: mu serializes them.
type Server struct {
	ep  *vnisvc.Endpoint
	mux *http.ServeMux
	mu  sync.Mutex
}

// maxRequestBytes bounds a webhook request body: a parent and its handful
// of children are a few KiB.
const maxRequestBytes = 1 << 20

// NewServer builds the endpoint server over db.
func NewServer(db *vnidb.DB) *Server {
	s := &Server{ep: vnisvc.NewEndpoint(db, wallClock{start: time.Now()}), mux: http.NewServeMux()}
	s.mux.HandleFunc("/sync", s.handleSync)
	s.mux.HandleFunc("/finalize", s.handleFinalize)
	s.mux.HandleFunc("/vnis", s.handleVNIs)
	s.mux.HandleFunc("/audit", s.handleAudit)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if allow(w, r, http.MethodGet) {
			fmt.Fprintln(w, "ok")
		}
	})
	return s
}

// Endpoint returns the wrapped endpoint (for tests).
func (s *Server) Endpoint() *vnisvc.Endpoint { return s.ep }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// allow answers a request with any other method than method with 405 and
// reports whether it may proceed.
func allow(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	http.Error(w, method+" required", http.StatusMethodNotAllowed)
	return false
}

// webhook reads a POSTed hook request — one JSON object and nothing after
// it — into the typed request and the hooks for its parent's kind. When
// ok is false it has answered the request with a 4xx.
func (s *Server) webhook(w http.ResponseWriter, r *http.Request) (hooks metactl.Hooks, req metactl.SyncRequest, ok bool) {
	if !allow(w, r, http.MethodPost) {
		return nil, req, false
	}
	var wire SyncRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err == nil {
		err = json.Unmarshal(body, &wire)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("decoding request: %v", err), http.StatusBadRequest)
		return nil, req, false
	}
	p := wire.Parent
	meta := k8s.Meta{Kind: k8s.Kind(p.Kind), Namespace: p.Namespace, Name: p.Name, UID: k8s.UID(p.UID),
		Annotations: p.Annotations, Deleting: p.Deleting}
	switch meta.Kind {
	case k8s.KindJob:
		req.Parent, hooks = &k8s.Job{Meta: meta}, s.ep.JobHooks()
	case vniapi.KindVniClaim:
		req.Parent, hooks = &k8s.Custom{Meta: meta, Spec: p.Spec}, s.ep.ClaimHooks()
	default:
		http.Error(w, fmt.Sprintf("unsupported parent kind %q", p.Kind), http.StatusBadRequest)
		return nil, req, false
	}
	for _, c := range wire.Children {
		req.Children = append(req.Children, &k8s.Custom{
			Meta: k8s.Meta{Kind: vniapi.KindVNI, Namespace: p.Namespace, Name: c.Name},
			Spec: c.Spec,
		})
	}
	return hooks, req, true
}

func toChildRefs(children []*k8s.Custom) []ChildRef {
	out := make([]ChildRef, 0, len(children))
	for _, c := range children {
		out = append(out, ChildRef{Name: c.Meta.Name, Spec: c.Spec})
	}
	return out
}

func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	hooks, req, ok := s.webhook(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	resp, err := hooks.Sync(req)
	children := toChildRefs(resp.Children) // before the next call reuses the answer
	s.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, SyncResponse{Children: children})
}

func (s *Server) handleFinalize(w http.ResponseWriter, r *http.Request) {
	hooks, req, ok := s.webhook(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	resp, err := hooks.Finalize(req)
	s.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, FinalizeResponse{Finalized: resp.Finalized, Children: toChildRefs(resp.Children)})
}

// vniRow is the wire form of one allocation table row.
type vniRow struct {
	VNI         uint32   `json:"vni"`
	Owner       string   `json:"owner"`
	State       string   `json:"state"`
	Users       []string `json:"users,omitempty"`
	AllocatedAt string   `json:"allocated_at"`
}

func (s *Server) handleVNIs(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	var rows []vniRow
	_ = s.ep.DB().View(func(tx *vnidb.Tx) error {
		for _, r := range tx.List() {
			rows = append(rows, vniRow{
				VNI: uint32(r.VNI), Owner: r.Owner, State: r.State.String(),
				Users: r.Users, AllocatedAt: r.AllocatedAt.String(),
			})
		}
		return nil
	})
	writeJSON(w, rows)
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	if allow(w, r, http.MethodGet) {
		writeJSON(w, s.ep.DB().Audit())
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
