package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestParseArgs(t *testing.T) {
	got := parseArgs("K8S_POD_NAMESPACE=ns;K8S_POD_NAME=pod-0;IgnoreUnknown=1")
	if got["K8S_POD_NAMESPACE"] != "ns" || got["K8S_POD_NAME"] != "pod-0" {
		t.Errorf("parseArgs = %v", got)
	}
	if len(parseArgs("")) != 0 {
		t.Error("empty args not empty")
	}
	if len(parseArgs("novalue")) != 0 {
		t.Error("malformed arg accepted")
	}
}

func TestNetnsInodeForms(t *testing.T) {
	// Fail closed: a bare number or a path that names no network
	// namespace is an error, never an inode nothing verified.
	notNetns := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notNetns, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"0", "4026531992", "/var/run/netns/cni-missing", notNetns} {
		if got, err := netnsInode(path); err == nil {
			t.Errorf("netnsInode(%q) = %d, want an error", path, got)
		}
	}
}

func TestStateLifecycle(t *testing.T) {
	t.Setenv("CXICNI_STATE_DIR", t.TempDir())
	id, err := stateCreateService("c1", 4026531992, 4242)
	if err != nil {
		t.Fatal(err)
	}
	if id < 2 {
		t.Errorf("svc id = %d, must be after the default service", id)
	}
	// Idempotent re-ADD returns the same service.
	id2, err := stateCreateService("c1", 4026531992, 4242)
	if err != nil || id2 != id {
		t.Errorf("re-add: id=%d err=%v", id2, err)
	}
	ok, err := stateCheckService("c1")
	if err != nil || !ok {
		t.Errorf("check: ok=%v err=%v", ok, err)
	}
	if err := stateDeleteService("c1"); err != nil {
		t.Fatal(err)
	}
	ok, err = stateCheckService("c1")
	if err != nil || ok {
		t.Errorf("check after delete: ok=%v err=%v", ok, err)
	}
	// DEL is idempotent.
	if err := stateDeleteService("c1"); err != nil {
		t.Errorf("second delete: %v", err)
	}
}

func TestFetchVNIAgainstEndpoint(t *testing.T) {
	// Covered end-to-end in the integration test (see below); here only
	// the error path without a server.
	if _, err := fetchVNI("http://127.0.0.1:1", "ns", "pod-0"); err == nil {
		t.Error("fetchVNI succeeded with no endpoint")
	}
	if _, err := fetchVNI("http://127.0.0.1:1", "", ""); err == nil {
		t.Error("fetchVNI succeeded without pod identity")
	}
}
