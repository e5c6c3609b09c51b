import pertgraph


def test_every_exported_name_resolves():
    namespace = {}
    exec("from pertgraph import *", namespace)  # raises on a name in __all__ that does not exist
    assert sorted(set(pertgraph.__all__) - set(namespace)) == []
    assert len(pertgraph.__all__) == len(set(pertgraph.__all__))
