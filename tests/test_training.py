import numpy as np
import pytest

from scampsim.dataset import DatasetSplit, GestureSample, generate, images_labels
from scampsim.model import load_weights, save_weights
from scampsim.training import (LatentModel, TrainConfig, TrainingError,
                               _forward_backward, evaluate, train)


def pixel_dataset(n_per_class=8):
    """Each class is a single distinct pixel location: separable by one FC
    weight."""
    samples = []
    for label, (r, c) in enumerate([(10, 10), (30, 30), (50, 50)]):
        for _ in range(n_per_class):
            img = np.zeros((64, 64), dtype=np.uint8)
            img[r, c] = 1
            samples.append(GestureSample(img, label))
    return DatasetSplit(samples, [], seed=0)


@pytest.fixture(scope="module")
def small_split():
    return generate(7, 20, 8)


class TestTrain:
    def test_pixel_classes_reach_full_train_accuracy(self):
        data = pixel_dataset()
        model, log = train(data, TrainConfig(seed=0, epochs=10,
                                             learning_rate=1000.0))
        assert log.records[log.best_epoch].train_acc == 1.0

    def test_deterministic_under_seed(self, small_split):
        cfg = TrainConfig(seed=3, epochs=2, learning_rate=1000.0)
        m1, _ = train(small_split, cfg)
        m2, _ = train(small_split, cfg)
        assert m1 == m2

    def test_zero_learning_rate_keeps_initial_signs(self, small_split):
        cfg = TrainConfig(seed=5, epochs=2, learning_rate=0.0)
        model, _ = train(small_split, cfg)
        init = LatentModel.init(cfg, 3).binarize()
        assert model == init

    def test_empty_dataset_rejected(self):
        with pytest.raises(TrainingError):
            train(DatasetSplit([], []), TrainConfig(epochs=1))

    def test_loss_decreases_over_first_epoch_small_lr(self):
        # monotone-start property on a frozen minibatch, averaged over seeds
        data = generate(11, 10)
        xs, ys = images_labels(data.train)
        deltas = []
        for seed in range(5):
            latent = LatentModel.init(TrainConfig(seed=seed), 3)
            loss0, gk, gf = _forward_backward(latent, xs, ys)
            lr = 200.0
            latent.kernels = np.clip(latent.kernels - lr * gk, -1, 1)
            latent.fc_weights = np.clip(latent.fc_weights - lr * gf, -1, 1)
            loss1, _, _ = _forward_backward(latent, xs, ys)
            deltas.append(loss1 - loss0)
        assert np.mean(deltas) <= 0

    def test_trained_model_round_trips(self, small_split):
        model, _ = train(small_split, TrainConfig(seed=1, epochs=1,
                                                  learning_rate=1000.0))
        assert load_weights(save_weights(model)) == model

    def test_log_csv_shape(self, small_split):
        _, log = train(small_split, TrainConfig(seed=0, epochs=2,
                                                learning_rate=1000.0))
        lines = log.to_csv().strip().splitlines()
        assert lines[0] == "epoch,train_acc,test_acc,loss"
        assert len(lines) == 3


class TestEvaluate:
    def test_relabeled_data_scores_perfectly(self, small_split):
        from scampsim.model import batch_predict, random_model
        m = random_model(seed=9)
        xs, _ = images_labels(small_split.train)
        preds = batch_predict(m, xs)
        relabeled = [GestureSample(x, int(p))
                     for x, p in zip(xs, preds)]
        acc, confusion = evaluate(m, relabeled)
        assert acc == 1.0
        assert np.all(confusion == np.diag(np.diag(confusion)))

    def test_random_model_near_chance(self):
        from scampsim.model import random_model
        data = generate(13, 100)
        accs = [evaluate(random_model(seed=s), data.train)[0]
                for s in range(8)]
        # mean accuracy of random +-1 models on balanced 3-class data ~ 1/3;
        # binomial 99% CI for 8*300 trials gives about +-0.025
        assert abs(np.mean(accs) - 1 / 3) < 0.1

    def test_confusion_rows_sum_to_class_counts(self, small_split):
        from scampsim.model import random_model
        acc, confusion = evaluate(random_model(seed=1), small_split.test)
        _, ys = images_labels(small_split.test)
        assert confusion.sum(axis=1).tolist() == np.bincount(ys).tolist()
