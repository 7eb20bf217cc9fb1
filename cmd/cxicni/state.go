package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"github.com/caps-sim/shs-k8s/internal/vnisvc"
)

// binding is one recorded CXI service.
type binding struct {
	ContainerID string `json:"containerId"`
	NetNSInode  uint64 `json:"netnsInode"`
	VNI         uint32 `json:"vni"`
	SvcID       int    `json:"svcId"`
	CreatedAt   string `json:"createdAt"`
}

// bindingPath is where the plugin records a container's service: a file in
// the state directory (CXICNI_STATE_DIR, by default /var/lib/cxicni), the
// binary equivalent of the in-process map in internal/cni. Real CNI plugins
// keep similar state under /var/lib/cni.
func bindingPath(dir, containerID string) string {
	return filepath.Join(dir, containerID+".json")
}

// stateCreateService records the binding that stands for the CXI service
// the driver would create (cxil_svc_alloc with a netns member). The SvcID
// is derived deterministically so repeated ADDs are idempotent.
func stateCreateService(dir, containerID string, inode uint64, vni uint32) (int, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return 0, err
	}
	if b, err := readBinding(dir, containerID); err == nil {
		return b.SvcID, nil // idempotent re-ADD
	}
	svcID := int(inode%100000) + 2 // driver IDs start after the default service
	b := binding{
		ContainerID: containerID, NetNSInode: inode, VNI: vni, SvcID: svcID,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return 0, err
	}
	tmp := bindingPath(dir, containerID) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o600); err != nil {
		return 0, err
	}
	return svcID, os.Rename(tmp, bindingPath(dir, containerID))
}

func readBinding(dir, containerID string) (binding, error) {
	var b binding
	data, err := os.ReadFile(bindingPath(dir, containerID))
	if err != nil {
		return b, err
	}
	return b, json.Unmarshal(data, &b)
}

// stateDeleteService removes the binding; missing state is success (DEL is
// idempotent per the CNI spec).
func stateDeleteService(dir, containerID string) error {
	err := os.Remove(bindingPath(dir, containerID))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// stateCheckService reports whether the binding exists.
func stateCheckService(dir, containerID string) (bool, error) {
	_, err := readBinding(dir, containerID)
	if os.IsNotExist(err) {
		return false, nil
	}
	return err == nil, err
}

// fetchVNI asks the VNI endpoint (cmd/vnisvc) for the VNI assigned to the
// pod's job, mirroring internal/cni.(*CXIPlugin).fetchVNI over HTTP.
func fetchVNI(endpoint, namespace, podName string) (uint32, error) {
	if namespace == "" || podName == "" {
		return 0, fmt.Errorf("pod identity missing from CNI_ARGS")
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(endpoint + "/vnis")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return 0, fmt.Errorf("vni endpoint: %s: %s", resp.Status, body)
	}
	var rows []struct {
		VNI   uint32   `json:"vni"`
		Owner string   `json:"owner"`
		State string   `json:"state"`
		Users []string `json:"users"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return 0, err
	}
	// A job's key is job/<namespace>/<job>/<uid>: the owner of the job's
	// own VNI, or a user of the claim VNI the job redeems. The pod name is
	// <job>-<index>; match on the job prefix.
	jobName := podName
	for i := len(podName) - 1; i >= 0; i-- {
		if podName[i] == '-' {
			jobName = podName[:i]
			break
		}
	}
	prefix := string(vnisvc.AppendJobKeyPrefix(nil, namespace, jobName))
	isJob := func(key string) bool { return len(key) > len(prefix) && strings.HasPrefix(key, prefix) }
	for _, r := range rows {
		if r.State == "allocated" && (isJob(r.Owner) || slices.ContainsFunc(r.Users, isJob)) {
			return r.VNI, nil
		}
	}
	return 0, fmt.Errorf("no allocated VNI for pod %s/%s", namespace, podName)
}
