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
//	CNI_CONTAINERID  container ID
//	CNI_NETNS        netns path (it must name a network namespace, or ADD
//	                 fails with code 7)
//	CNI_ARGS         K8S_POD_NAMESPACE=...;K8S_POD_NAME=...
//
// Stdin (network configuration, chained form):
//
//	{
//	  "cniVersion": "1.0.0",
//	  "name": "slingshot",
//	  "type": "cxicni",
//	  "vni": 4242,              // static VNI (or use vniEndpoint)
//	  "vniEndpoint": "http://vnisvc:8080",
//	  "prevResult": { ... }     // previous plugin's result
//	}
package main

import (
	"encoding/json"
	"fmt"
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
	CNIVersion string          `json:"cniVersion"`
	Interfaces json.RawMessage `json:"interfaces,omitempty"`
	CXI        *CXIAttachment  `json:"cxi,omitempty"`
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

func fail(code int, format string, args ...any) {
	e := Error{CNIVersion: "1.0.0", Code: code, Msg: fmt.Sprintf(format, args...)}
	_ = json.NewEncoder(os.Stdout).Encode(e)
	os.Exit(1)
}

func main() {
	cmd := os.Getenv("CNI_COMMAND")
	switch cmd {
	case "VERSION":
		fmt.Println(`{"cniVersion":"1.0.0","supportedVersions":["0.4.0","1.0.0"]}`)
		return
	case "ADD", "DEL", "CHECK":
	default:
		fail(4, "unknown CNI_COMMAND %q", cmd)
	}

	var conf NetConf
	if err := json.NewDecoder(os.Stdin).Decode(&conf); err != nil {
		fail(6, "decoding network configuration: %v", err)
	}
	args := parseArgs(os.Getenv("CNI_ARGS"))
	containerID := os.Getenv("CNI_CONTAINERID")
	netns := os.Getenv("CNI_NETNS")

	switch cmd {
	case "ADD":
		runAdd(conf, containerID, netns, args)
	case "DEL":
		// DEL must be idempotent and succeed even with partial state: the
		// state file records any service this binary created for the
		// container (see state.go).
		runDel(conf, containerID)
	case "CHECK":
		runCheck(conf, containerID)
	}
}

// parseArgs splits CNI_ARGS ("A=1;B=2") into a map.
func parseArgs(s string) map[string]string {
	out := map[string]string{}
	for _, kv := range strings.Split(s, ";") {
		if i := strings.IndexByte(kv, '='); i > 0 {
			out[kv[:i]] = kv[i+1:]
		}
	}
	return out
}

func runAdd(conf NetConf, containerID, netns string, args map[string]string) {
	if netns == "" {
		fail(7, "CNI_NETNS not set")
	}
	inode, err := netnsInode(netns)
	if err != nil {
		fail(7, "resolving CNI_NETNS: %v", err)
	}
	vni := conf.VNI
	if vni == 0 && conf.VNIEndpoint != "" {
		v, err := fetchVNI(conf.VNIEndpoint, args["K8S_POD_NAMESPACE"], args["K8S_POD_NAME"])
		if err != nil {
			// No VNI could be fetched: the container must fail to launch.
			fail(7, "fetching VNI: %v", err)
		}
		vni = v
	}
	if vni == 0 {
		fail(7, "no VNI configured (set \"vni\" or \"vniEndpoint\")")
	}
	svcID, err := stateCreateService(containerID, inode, vni)
	if err != nil {
		fail(11, "creating CXI service: %v", err)
	}
	res := Result{CNIVersion: "1.0.0", CXI: &CXIAttachment{Device: "cxi0", SvcID: svcID, VNI: vni}}
	if len(conf.PrevResult) > 0 {
		var prev Result
		if err := json.Unmarshal(conf.PrevResult, &prev); err == nil {
			res.Interfaces = prev.Interfaces
		}
	}
	_ = json.NewEncoder(os.Stdout).Encode(res)
}

func runDel(conf NetConf, containerID string) {
	if err := stateDeleteService(containerID); err != nil {
		fail(11, "deleting CXI service: %v", err)
	}
}

func runCheck(conf NetConf, containerID string) {
	ok, err := stateCheckService(containerID)
	if err != nil {
		fail(11, "checking CXI service: %v", err)
	}
	if !ok {
		fail(11, "cxi service for container %s missing", containerID)
	}
}
