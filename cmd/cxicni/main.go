// Command cxicni is the CXI CNI plugin in its standard binary form: the
// container runtime execs it with the CNI verb in CNI_COMMAND, the network
// configuration on stdin, and invocation details in CNI_ARGS-style
// environment variables. It demonstrates the exact contract the paper's
// chained plugin implements (§III-B); against the simulated driver it
// resolves the VNI from a local VNI-endpoint HTTP service or a static
// assignment in the network configuration.
//
// Environment:
//
//	CNI_COMMAND      ADD | DEL | CHECK | VERSION
//	CNI_CONTAINERID  container ID: a letter or digit, then letters, digits,
//	                 '_', '.' or '-' (anything else is code 4)
//	CNI_NETNS        netns path (it must name a network namespace, or ADD
//	                 fails with code 7)
//	CNI_ARGS         K8S_POD_NAMESPACE=...;K8S_POD_NAME=... (ADD: a pair
//	                 that is not key=value is code 4)
//	CXICNI_STATE_DIR where services are recorded (default /var/lib/cxicni)
//
// Stdin (network configuration, chained form):
//
//	{
//	  "cniVersion": "1.0.0",
//	  "name": "slingshot",
//	  "type": "cxicni",
//	  "vni": 4242,              // static VNI (or use vniEndpoint)
//	  "vniEndpoint": "http://vnisvc:8080",
//	  "prevResult": { ... }     // previous plugin's result; not a result: code 6
//	}
//
// Every input is validated before the service is recorded, so an
// invocation that fails leaves none behind. The exit code is 0 with the
// result (ADD) or nothing (DEL, CHECK) on stdout, or 1 with one CNI error
// object.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// NetConf is the plugin's network configuration.
type NetConf struct {
	CNIVersion  string          `json:"cniVersion"`
	Name        string          `json:"name"`
	Type        string          `json:"type"`
	VNI         uint32          `json:"vni,omitempty"`
	VNIEndpoint string          `json:"vniEndpoint,omitempty"`
	PrevResult  json.RawMessage `json:"prevResult,omitempty"`
}

// Result is the CNI result this plugin emits (prevResult extended with the
// cxi attachment).
type Result struct {
	CNIVersion string            `json:"cniVersion"`
	Interfaces []json.RawMessage `json:"interfaces,omitempty"`
	CXI        *CXIAttachment    `json:"cxi,omitempty"`
}

// CXIAttachment mirrors cni.CXIAttachment on the wire.
type CXIAttachment struct {
	Device string `json:"device"`
	SvcID  int    `json:"svcId"`
	VNI    uint32 `json:"vni"`
}

// Error is the CNI error object.
type Error struct {
	CNIVersion string `json:"cniVersion"`
	Code       int    `json:"code"`
	Msg        string `json:"msg"`
}

func cniError(code int, format string, args ...any) *Error {
	return &Error{CNIVersion: "1.0.0", Code: code, Msg: fmt.Sprintf(format, args...)}
}

func main() { os.Exit(run(os.Getenv, os.Stdin, os.Stdout)) }

// run is one plugin invocation: env supplies the CNI_* variables, stdin the
// network configuration, and stdout receives the one result or error
// object. It returns the exit code, 0 or 1.
func run(env func(string) string, stdin io.Reader, stdout io.Writer) int {
	res, err := invoke(env, stdin)
	enc := json.NewEncoder(stdout)
	if err != nil {
		_ = enc.Encode(err)
		return 1
	}
	if res != nil {
		_ = enc.Encode(res)
	}
	return 0
}

// invoke validates every input before it acts: a malformed one is an error
// and leaves no state behind.
func invoke(env func(string) string, stdin io.Reader) (any, *Error) {
	cmd := env("CNI_COMMAND")
	switch cmd {
	case "VERSION":
		return json.RawMessage(`{"cniVersion":"1.0.0","supportedVersions":["0.4.0","1.0.0"]}`), nil
	case "ADD", "DEL", "CHECK":
	default:
		return nil, cniError(4, "unknown CNI_COMMAND %q", cmd)
	}
	containerID := env("CNI_CONTAINERID")
	if !validContainerID(containerID) {
		return nil, cniError(4, "invalid CNI_CONTAINERID %q", containerID)
	}
	var conf NetConf
	if err := json.NewDecoder(stdin).Decode(&conf); err != nil {
		return nil, cniError(6, "decoding network configuration: %v", err)
	}
	dir := env("CXICNI_STATE_DIR")
	if dir == "" {
		dir = "/var/lib/cxicni"
	}
	switch cmd {
	case "ADD":
		return runAdd(conf, dir, containerID, env("CNI_NETNS"), env("CNI_ARGS"))
	case "DEL":
		// DEL must be idempotent and succeed even with partial state: the
		// state file records any service this binary created for the
		// container (see state.go).
		if err := stateDeleteService(dir, containerID); err != nil {
			return nil, cniError(11, "deleting CXI service: %v", err)
		}
		return nil, nil
	default:
		return nil, runCheck(dir, containerID)
	}
}

// validContainerID is the CNI spec's container ID syntax. The ID names the
// state file, so nothing else — a path separator, "..", an empty ID — may
// reach the file system.
func validContainerID(id string) bool {
	for i := 0; i < len(id); i++ {
		c := id[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return id != ""
}

// parseArgs splits CNI_ARGS ("A=1;B=2") into a map. Every pair must be one
// non-empty key, one '=' and a value.
func parseArgs(s string) (map[string]string, error) {
	out := map[string]string{}
	if s == "" {
		return out, nil
	}
	for _, kv := range strings.Split(s, ";") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" || strings.Contains(v, "=") {
			return nil, fmt.Errorf("invalid pair %q", kv)
		}
		out[k] = v
	}
	return out, nil
}

func runAdd(conf NetConf, dir, containerID, netns, cniArgs string) (*Result, *Error) {
	args, err := parseArgs(cniArgs)
	if err != nil {
		return nil, cniError(4, "CNI_ARGS: %v", err)
	}
	if netns == "" {
		return nil, cniError(7, "CNI_NETNS not set")
	}
	inode, err := netnsInode(netns)
	if err != nil {
		return nil, cniError(7, "resolving CNI_NETNS: %v", err)
	}
	var prev Result
	if len(conf.PrevResult) > 0 {
		if err := json.Unmarshal(conf.PrevResult, &prev); err != nil {
			return nil, cniError(6, "decoding prevResult: %v", err)
		}
	}
	vni := conf.VNI
	if vni == 0 && conf.VNIEndpoint != "" {
		v, err := fetchVNI(conf.VNIEndpoint, args["K8S_POD_NAMESPACE"], args["K8S_POD_NAME"])
		if err != nil {
			// No VNI could be fetched: the container must fail to launch.
			return nil, cniError(7, "fetching VNI: %v", err)
		}
		vni = v
	}
	if vni == 0 {
		return nil, cniError(7, "no VNI configured (set \"vni\" or \"vniEndpoint\")")
	}
	svcID, err := stateCreateService(dir, containerID, inode, vni)
	if err != nil {
		return nil, cniError(11, "creating CXI service: %v", err)
	}
	return &Result{CNIVersion: "1.0.0", Interfaces: prev.Interfaces,
		CXI: &CXIAttachment{Device: "cxi0", SvcID: svcID, VNI: vni}}, nil
}

func runCheck(dir, containerID string) *Error {
	ok, err := stateCheckService(dir, containerID)
	if err != nil {
		return cniError(11, "checking CXI service: %v", err)
	}
	if !ok {
		return cniError(11, "cxi service for container %s missing", containerID)
	}
	return nil
}
