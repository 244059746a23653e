"""flowcamo: traffic-feature camouflage lab.

Black-box substitute extraction, feature-pool pruning, generator-based
traffic-feature manipulation (misidentification and identity spoofing),
and an RF-signature device-profiling defense, over synthetic network-flow
feature vectors.
"""
