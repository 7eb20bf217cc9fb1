# pairs-summary.awk — the summary and verdict of a parent-vs-change pair
# set (scripts/pairs.sh). Input, one record per line:
#
#   spec <metric> <better: lower|higher> <bound: a fraction, 0.25 = 25 %>
#   <pair> <parent|change> <metric> <value>
#
# pairs.sh writes the spec lines from BENCHMARK.json's end_to_end list
# with jq, then the runs. Per metric it prints each side's quartiles, the
# pairs the change won (ties count for neither), the median's move, the
# parent's inter-quartile spread, and the verdict the regression gate and
# a gain claim would reach, the first that holds of:
#
#   gain          the change won at least nine pairs in ten and its median
#                 moved the better way by more than the parent's IQR
#   worse         the median is worse than the parent's by more than the bound
#   unresolved    the parent's own IQR, relative to its median, is wider than
#                 the bound, and the change did not win every pair
#   within bound  anything else
#
# A metric with no spec line is read as lower-is-better and gets no verdict.
#
#   awk -f scripts/pairs-summary.awk runs.txt
function sorted(side, m, out,    n, i, j, v) {
	n = 0
	for (i = 1; i <= npairs; i++)
		if ((i, side, m) in val) out[++n] = val[i, side, m]
	for (i = 2; i <= n; i++) {
		v = out[i]
		for (j = i - 1; j >= 1 && out[j] > v; j--) out[j + 1] = out[j]
		out[j + 1] = v
	}
	return n
}
function quantile(a, n, q,    h, lo) {
	h = (n - 1) * q + 1
	lo = int(h)
	return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function rel(x, base) { return base ? x / base : 0 }
$1 == "spec" { better[$2] = $3; bound[$2] = $4; next }
{
	val[$1, $2, $3] = $4
	if ($1 > npairs) npairs = $1
	if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 }
}
END {
	printf "\n%-18s %-6s %12s %12s %12s   %s\n", "metric", "side", "q1", "median", "q3", "change wins, verdict"
	for (k = 1; k <= nm; k++) {
		m = order[k]
		sign = better[m] == "higher" ? -1 : 1 # sign * (change - parent) < 0 is better
		wins = ties = 0
		for (i = 1; i <= npairs; i++) {
			d = sign * (val[i, "change", m] - val[i, "parent", m])
			if (d == 0) ties++
			else if (d < 0) wins++
		}
		n = sorted("parent", m, a)
		pq1 = quantile(a, n, .25); pm = quantile(a, n, .5); pq3 = quantile(a, n, .75)
		printf "%-18s %-6s %12.6g %12.6g %12.6g\n", m, "parent", pq1, pm, pq3
		iqr = pq3 - pq1
		n = sorted("change", m, a)
		cm = quantile(a, n, .5)
		moved = sign * (cm - pm) # below zero is better
		if (!(m in bound)) verdict = "-"
		else if (wins * 10 >= npairs * 9 && -moved > iqr) verdict = "gain"
		else if (rel(moved, pm) > bound[m]) verdict = "worse"
		else if (rel(iqr, pm) > bound[m] && wins < npairs) verdict = "unresolved"
		else verdict = "within bound"
		printf "%-18s %-6s %12.6g %12.6g %12.6g   %d of %d (%d ties), median %+.2f%%, parent IQR %.6g: %s\n", m, "change",
			quantile(a, n, .25), cm, quantile(a, n, .75), wins, npairs, ties, rel(cm - pm, pm) * 100, iqr, verdict
	}
}
