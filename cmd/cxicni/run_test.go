package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/vnidb"
	"github.com/caps-sim/shs-k8s/internal/vnisvc/httpapi"
)

// netnsPaths are the CNI_NETNS values the tests choose from: the test's own
// network namespace, then values that name none.
var netnsPaths = []string{"/proc/self/ns/net", "", "/nonexistent/netns", "/proc/self/ns/user", "4026531992"}

// invocation runs the plugin once with env over a fresh state directory and
// checks the contract every invocation keeps: exit code 0 or 1; on 1
// exactly one error object on stdout and no service recorded; on 0 exactly
// one result object for ADD (its service recorded), one version object for
// VERSION and nothing for DEL and CHECK. It returns the exit code and the
// error object's code.
func invocation(t *testing.T, env map[string]string, conf []byte) (exit, errCode int) {
	t.Helper()
	dir := t.TempDir()
	env["CXICNI_STATE_DIR"] = dir
	var out bytes.Buffer
	exit = run(func(k string) string { return env[k] }, bytes.NewReader(conf), &out)
	var objs []json.RawMessage
	for dec := json.NewDecoder(&out); ; {
		var o json.RawMessage
		if err := dec.Decode(&o); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatalf("stdout is not a sequence of JSON objects: %v", err)
		}
		objs = append(objs, o)
	}
	strict := func(raw json.RawMessage, into any) {
		t.Helper()
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(into); err != nil {
			t.Fatalf("stdout %s: %v", raw, err)
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cmd := env["CNI_COMMAND"]
	switch {
	case exit == 1:
		var e Error
		if len(objs) != 1 {
			t.Fatalf("exit 1 with %d objects on stdout", len(objs))
		}
		strict(objs[0], &e)
		if e.Code == 0 || e.Msg == "" {
			t.Fatalf("error object %+v has no code or message", e)
		}
		if len(files) != 0 {
			t.Fatalf("a failed %s left %s in the state directory", cmd, files[0].Name())
		}
		return exit, e.Code
	case exit != 0:
		t.Fatalf("exit code %d", exit)
	case cmd == "ADD":
		var r Result
		if len(objs) != 1 {
			t.Fatalf("ADD succeeded with %d objects on stdout", len(objs))
		}
		strict(objs[0], &r)
		if r.CXI == nil || r.CXI.VNI == 0 {
			t.Fatalf("ADD result %s has no CXI attachment", objs[0])
		}
		if len(files) != 1 || files[0].Name() != env["CNI_CONTAINERID"]+".json" {
			t.Fatalf("ADD succeeded with state %v", files)
		}
	case cmd == "VERSION":
		if len(objs) != 1 {
			t.Fatalf("VERSION printed %d objects", len(objs))
		}
	case len(objs) != 0 || len(files) != 0:
		t.Fatalf("%s succeeded with %d objects on stdout and %d state files", cmd, len(objs), len(files))
	}
	return exit, 0
}

func addEnv(netns, containerID, args string) map[string]string {
	return map[string]string{"CNI_COMMAND": "ADD", "CNI_CONTAINERID": containerID, "CNI_NETNS": netns, "CNI_ARGS": args}
}

// TestRunFailsClosed: every malformed input is a CNI error before any
// service exists — a prevResult that is not a result (code 6), a CNI_ARGS
// pair that is not key=value or a container ID that could name a path
// (code 4) — while well-formed ADD, DEL and VERSION succeed.
func TestRunFailsClosed(t *testing.T) {
	if _, err := netnsInode(netnsPaths[0]); err != nil {
		t.Skipf("no network namespace to add to: %v", err)
	}
	const conf = `{"cniVersion":"1.0.0","name":"s","type":"cxicni","vni":4242%s}`
	with := func(extra string) []byte { return []byte(strings.Replace(conf, "%s", extra, 1)) }
	cases := []struct {
		name string
		env  map[string]string
		conf []byte
		code int // 0: success
	}{
		{"add", addEnv(netnsPaths[0], "ctr", "K8S_POD_NAMESPACE=ns;K8S_POD_NAME=p-0"), with(""), 0},
		{"add after an interface", addEnv(netnsPaths[0], "ctr", ""), with(`,"prevResult":{"cniVersion":"1.0.0","interfaces":[{"name":"eth0"}]}`), 0},
		{"prevResult not an object", addEnv(netnsPaths[0], "ctr", ""), with(`,"prevResult":"eth0"`), 6},
		{"prevResult interfaces not a list", addEnv(netnsPaths[0], "ctr", ""), with(`,"prevResult":{"interfaces":{"name":"eth0"}}`), 6},
		{"CNI_ARGS pair without a value", addEnv(netnsPaths[0], "ctr", "K8S_POD_NAMESPACE=ns;K8S_POD_NAME"), with(""), 4},
		{"CNI_ARGS empty pair", addEnv(netnsPaths[0], "ctr", "K8S_POD_NAMESPACE=ns;"), with(""), 4},
		{"container ID with a path", addEnv(netnsPaths[0], "../ctr", ""), with(""), 4},
		{"no container ID", addEnv(netnsPaths[0], "", ""), with(""), 4},
		{"no netns", addEnv("", "ctr", ""), with(""), 7},
		{"no VNI", addEnv(netnsPaths[0], "ctr", ""), []byte(`{"cniVersion":"1.0.0"}`), 7},
		{"del", map[string]string{"CNI_COMMAND": "DEL", "CNI_CONTAINERID": "ctr"}, with(""), 0},
		{"check without a service", map[string]string{"CNI_COMMAND": "CHECK", "CNI_CONTAINERID": "ctr"}, with(""), 11},
		{"version", map[string]string{"CNI_COMMAND": "VERSION"}, nil, 0},
		{"unknown command", map[string]string{"CNI_COMMAND": "GET", "CNI_CONTAINERID": "ctr"}, with(""), 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, code := invocation(t, tc.env, tc.conf); code != tc.code {
				t.Errorf("CNI error code %d, want %d", code, tc.code)
			}
		})
	}
}

// FuzzCNIPlugin drives one invocation with arbitrary CNI_COMMAND, network
// configuration, CNI_ARGS and CNI_CONTAINERID, and a CNI_NETNS from
// netnsPaths; invocation checks the contract. "$ENDPOINT" in the
// configuration is a local VNI endpoint holding one job's VNI; a
// configuration that names any other endpoint is skipped, so the plugin
// never contacts another host.
func FuzzCNIPlugin(f *testing.F) {
	srv := httptest.NewServer(httpapi.NewServer(vnidb.Open(vnidb.Options{MinVNI: 3000, MaxVNI: 3010, Quarantine: time.Second})))
	f.Cleanup(srv.Close)
	body, _ := json.Marshal(httpapi.SyncRequest{Parent: httpapi.ParentRef{
		Kind: "Job", Namespace: "tenant", Name: "mpi", UID: "u1", Annotations: map[string]string{"vni": "true"}}})
	resp, err := http.Post(srv.URL+"/sync", "application/json", bytes.NewReader(body))
	if err != nil {
		f.Fatal(err)
	}
	resp.Body.Close()

	static := `{"cniVersion":"1.0.0","name":"s","type":"cxicni","vni":4242}`
	fetched := `{"cniVersion":"1.0.0","name":"s","type":"cxicni","vniEndpoint":"$ENDPOINT"}`
	pod := "K8S_POD_NAMESPACE=tenant;K8S_POD_NAME=mpi-0"
	f.Add("ADD", []byte(static), "", "ctr", uint8(0))
	f.Add("ADD", []byte(fetched), pod, "ctr", uint8(0))
	f.Add("ADD", []byte(fetched), "K8S_POD_NAMESPACE=tenant;K8S_POD_NAME=ghost-0", "ctr", uint8(0))
	f.Add("ADD", []byte(`{"vni":1,"prevResult":{"interfaces":[{"name":"eth0"}]}}`), pod, "c.1_x-2", uint8(0))
	f.Add("ADD", []byte(`{"vni":1,"prevResult":[1]}`), pod, "ctr", uint8(0))
	f.Add("ADD", []byte(static), "K8S_POD_NAME", "ctr", uint8(0))
	f.Add("ADD", []byte(static), "", "../ctr", uint8(0))
	f.Add("ADD", []byte(static), "", "ctr", uint8(2))
	f.Add("ADD", []byte(`{"vni":`), "", "ctr", uint8(3))
	f.Add("DEL", []byte(static), "", "ctr", uint8(0))
	f.Add("CHECK", []byte(static), "", "ctr", uint8(0))
	f.Add("VERSION", []byte(nil), "", "", uint8(0))
	f.Add("", []byte(static), pod, "ctr", uint8(4))
	f.Fuzz(func(t *testing.T, cmd string, conf []byte, args, containerID string, netns uint8) {
		conf = bytes.ReplaceAll(conf, []byte("$ENDPOINT"), []byte(srv.URL))
		var nc NetConf
		if json.NewDecoder(bytes.NewReader(conf)).Decode(&nc) == nil && nc.VNIEndpoint != "" && nc.VNIEndpoint != srv.URL {
			t.Skip("names a VNI endpoint other than the local one")
		}
		env := map[string]string{"CNI_COMMAND": cmd, "CNI_CONTAINERID": containerID, "CNI_ARGS": args,
			"CNI_NETNS": netnsPaths[int(netns)%len(netnsPaths)]}
		invocation(t, env, conf)
	})
}

// The state directory never holds a file whose name a container ID chose
// outside it.
func TestContainerIDStaysInTheStateDirectory(t *testing.T) {
	for _, id := range []string{"ctr", "c.1_x-2", "A9"} {
		if !validContainerID(id) {
			t.Errorf("valid container ID %q refused", id)
		}
	}
	for _, id := range []string{"", ".", "..", "../x", "a/b", "-x", "_x", ".x", "x y", "x\x00"} {
		if validContainerID(id) {
			t.Errorf("container ID %q accepted (state file %s)", id, filepath.Join("/state", id+".json"))
		}
	}
}
