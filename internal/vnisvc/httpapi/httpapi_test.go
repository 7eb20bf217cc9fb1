package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/vniapi"
	"github.com/caps-sim/shs-k8s/internal/vnidb"
)

func newServer() *Server {
	return NewServer(vnidb.Open(vnidb.Options{MinVNI: 100, MaxVNI: 199, Quarantine: time.Second}))
}

func post(t *testing.T, srv *Server, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

func jobParent(name, uid, annotation string) ParentRef {
	return ParentRef{
		Kind: "Job", Namespace: "ns", Name: name, UID: uid,
		Annotations: map[string]string{vniapi.Annotation: annotation},
	}
}

func TestSyncAllocatesVNIForJob(t *testing.T) {
	srv := newServer()
	w := post(t, srv, "/sync", SyncRequest{Parent: jobParent("j1", "u1", "true")})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp SyncResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Children) != 1 {
		t.Fatalf("children = %+v", resp.Children)
	}
	child := resp.Children[0]
	if child.Spec[vniapi.SpecVNI] != "100" || child.Spec[vniapi.SpecJob] != "j1" {
		t.Errorf("child = %+v", child)
	}
	// Idempotent: same parent, same VNI.
	w2 := post(t, srv, "/sync", SyncRequest{Parent: jobParent("j1", "u1", "true")})
	var resp2 SyncResponse
	_ = json.Unmarshal(w2.Body.Bytes(), &resp2)
	if resp2.Children[0].Spec[vniapi.SpecVNI] != "100" {
		t.Error("re-sync changed VNI")
	}
}

func TestFinalizeReleasesVNI(t *testing.T) {
	srv := newServer()
	post(t, srv, "/sync", SyncRequest{Parent: jobParent("j1", "u1", "true")})
	p := jobParent("j1", "u1", "true")
	p.Deleting = true
	w := post(t, srv, "/finalize", SyncRequest{Parent: p})
	var resp FinalizeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Finalized {
		t.Error("finalize did not complete")
	}
	if st := srv.Endpoint().DB().Stats(); st.Allocated != 0 || st.Quarantined != 1 {
		t.Errorf("db stats = %+v", st)
	}
}

func TestClaimLifecycleOverHTTP(t *testing.T) {
	srv := newServer()
	claim := ParentRef{Kind: string(vniapi.KindVniClaim), Namespace: "ns", Name: "c1", UID: "cu",
		Spec: map[string]string{vniapi.ClaimSpecName: "shared"}}
	w := post(t, srv, "/sync", SyncRequest{Parent: claim})
	if w.Code != http.StatusOK {
		t.Fatalf("claim sync: %d %s", w.Code, w.Body)
	}
	// Job redeems the claim.
	w = post(t, srv, "/sync", SyncRequest{Parent: jobParent("user-job", "ju", "c1")})
	if w.Code != http.StatusOK {
		t.Fatalf("redeem sync: %d %s", w.Code, w.Body)
	}
	var resp SyncResponse
	_ = json.Unmarshal(w.Body.Bytes(), &resp)
	if resp.Children[0].Spec[vniapi.SpecVirtual] != "true" {
		t.Errorf("redeeming child not virtual: %+v", resp.Children[0])
	}
	// Claim finalize blocked while the user remains.
	claim.Deleting = true
	w = post(t, srv, "/finalize", SyncRequest{Parent: claim})
	var fin FinalizeResponse
	_ = json.Unmarshal(w.Body.Bytes(), &fin)
	if fin.Finalized {
		t.Error("claim finalized with live user")
	}
	// Remove the user, then finalize succeeds.
	jp := jobParent("user-job", "ju", "c1")
	jp.Deleting = true
	post(t, srv, "/finalize", SyncRequest{Parent: jp})
	w = post(t, srv, "/finalize", SyncRequest{Parent: claim})
	_ = json.Unmarshal(w.Body.Bytes(), &fin)
	if !fin.Finalized {
		t.Error("claim not finalized after user removal")
	}
}

func TestSyncMissingClaimConflicts(t *testing.T) {
	srv := newServer()
	w := post(t, srv, "/sync", SyncRequest{Parent: jobParent("j", "u", "ghost-claim")})
	if w.Code != http.StatusConflict {
		t.Errorf("status = %d, want 409", w.Code)
	}
}

func TestBadRequests(t *testing.T) {
	srv := newServer()
	// GET on webhook.
	req := httptest.NewRequest(http.MethodGet, "/sync", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /sync = %d", w.Code)
	}
	// Garbage body.
	req = httptest.NewRequest(http.MethodPost, "/sync", bytes.NewReader([]byte("{")))
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Errorf("garbage body = %d", w.Code)
	}
	// Unknown parent kind.
	w = post(t, srv, "/sync", SyncRequest{Parent: ParentRef{Kind: "Pod", Namespace: "ns", Name: "x"}})
	if w.Code != http.StatusBadRequest {
		t.Errorf("unknown kind = %d", w.Code)
	}
}

func TestVNIsAndAuditEndpoints(t *testing.T) {
	srv := newServer()
	post(t, srv, "/sync", SyncRequest{Parent: jobParent("j1", "u1", "true")})
	req := httptest.NewRequest(http.MethodGet, "/vnis", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/vnis = %d", w.Code)
	}
	var rows []map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["state"] != "allocated" {
		t.Errorf("rows = %+v", rows)
	}
	req = httptest.NewRequest(http.MethodGet, "/audit", nil)
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte("acquire")) {
		t.Errorf("/audit = %d %s", w.Code, w.Body)
	}
	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Errorf("/healthz = %d", w.Code)
	}
}

func TestHTTPServerEndToEnd(t *testing.T) {
	// Full network round trip through a real listener, as cmd/vnisvc runs.
	srv := httptest.NewServer(newServer())
	defer srv.Close()
	body, _ := json.Marshal(SyncRequest{Parent: jobParent("j1", "u1", "true")})
	resp, err := http.Post(srv.URL+"/sync", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var sr SyncResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Children) != 1 {
		t.Errorf("children = %+v", sr.Children)
	}
}

// FuzzVNIServiceHTTP sends one request with an arbitrary method, path and
// body to a server whose database holds a job's VNI and a claim's VNI with
// one user. The server never panics and never answers 5xx; a webhook that
// is not POSTed gets 405 and one whose body is not exactly one request
// object 400; and a request it does not answer 2xx leaves the database's
// rows and audit log as they were.
func FuzzVNIServiceHTTP(f *testing.F) {
	body := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	claim := ParentRef{Kind: string(vniapi.KindVniClaim), Namespace: "ns", Name: "c1", UID: "cu"}
	deleting := func(p ParentRef) ParentRef { p.Deleting = true; return p }
	f.Add("POST", "/sync", body(SyncRequest{Parent: jobParent("j2", "u2", "true")}))
	f.Add("POST", "/sync", body(SyncRequest{Parent: jobParent("j3", "u3", "c1")}))
	f.Add("POST", "/sync", body(SyncRequest{Parent: jobParent("j4", "u4", "ghost")}))
	f.Add("POST", "/finalize", body(SyncRequest{Parent: deleting(jobParent("j1", "u1", "true"))}))
	f.Add("POST", "/finalize", body(SyncRequest{Parent: deleting(claim)}))
	f.Add("POST", "/sync", []byte(`{"parent":{"kind":"Job"}} {}`))
	f.Add("POST", "/sync", []byte("{"))
	f.Add("GET", "/sync", []byte(nil))
	f.Add("GET", "/vnis", []byte(nil))
	f.Add("PUT", "/audit", []byte(nil))
	f.Add("DELETE", "/healthz", []byte(nil))
	f.Add("POST", "//sync/", []byte(nil))
	f.Fuzz(func(t *testing.T, method, path string, body []byte) {
		srv := newServer()
		for _, p := range []ParentRef{jobParent("j1", "u1", "true"), claim, jobParent("user", "ju", "c1")} {
			if w := post(t, srv, "/sync", SyncRequest{Parent: p}); w.Code != http.StatusOK {
				t.Fatalf("seeding %s: %d %s", p.Name, w.Code, w.Body)
			}
		}
		db := srv.Endpoint().DB()
		state := func() (rows []vnidb.Row, audit []vnidb.AuditEntry) {
			db.View(func(tx *vnidb.Tx) error { rows = tx.List(); return nil })
			return rows, db.Audit()
		}
		rows, audit := state()
		u := url.URL{Scheme: "http", Host: "vnisvc", Path: path}
		req, err := http.NewRequest(method, u.String(), bytes.NewReader(body))
		if err != nil {
			t.Skip("not an HTTP request line")
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code >= 500 {
			t.Fatalf("%s %s: %d %s", req.Method, req.URL.Path, w.Code, w.Body)
		}
		if p := req.URL.Path; p == "/sync" || p == "/finalize" {
			var wire SyncRequest
			switch {
			case req.Method != http.MethodPost && w.Code != http.StatusMethodNotAllowed:
				t.Errorf("%s %s: %d, want 405", req.Method, p, w.Code)
			case req.Method == http.MethodPost && json.Unmarshal(body, &wire) != nil && w.Code != http.StatusBadRequest:
				t.Errorf("POST %s with body %q: %d, want 400", p, body, w.Code)
			}
		}
		if w.Code >= 300 {
			if gotRows, gotAudit := state(); !reflect.DeepEqual(rows, gotRows) || !reflect.DeepEqual(audit, gotAudit) {
				t.Errorf("%s %s answered %d but changed the database", req.Method, req.URL.Path, w.Code)
			}
		}
	})
}

// TestReadEndpointsAreGetOnly: the read endpoints answer GET and refuse
// every other method, naming the allowed one.
func TestReadEndpointsAreGetOnly(t *testing.T) {
	srv := newServer()
	for _, path := range []string{"/vnis", "/audit", "/healthz"} {
		for _, method := range []string{http.MethodGet, http.MethodPost, http.MethodDelete} {
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(method, path, nil))
			want := http.StatusOK
			if method != http.MethodGet {
				want = http.StatusMethodNotAllowed
			}
			if w.Code != want || (want != http.StatusOK && w.Header().Get("Allow") != http.MethodGet) {
				t.Errorf("%s %s = %d (Allow %q), want %d", method, path, w.Code, w.Header().Get("Allow"), want)
			}
		}
	}
}
